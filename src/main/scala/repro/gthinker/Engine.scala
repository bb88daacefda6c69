package repro.gthinker

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import repro.core._
import repro.graph.{GraphOps, LocalGraph}
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** A mining task ⟨S, ext(S)⟩ in ids of the engine's (k-core-pruned, recoded)
  * global graph. The task's subgraph is the one induced by s ++ ext; it is
  * materialized from the broadcast graph when the task is executed, and that
  * materialization time is metered separately (Tables 12–14).
  */
final case class QCTask(root: Int, s: Array[Int], ext: Array[Int])

/** The three algorithm variants of Section 8. Each one decides, for a
  * child that survives bounding, whether the single set-enumeration search
  * (`Miner.mine`) recurses into it or spawns it as a new task.
  */
sealed trait Mode extends Serializable {
  /** The spawn rule for one task with |ext| = `extSize` whose mining
    * started at `startNanos`: a function of the child's recursion depth.
    */
  def spawnRule(extSize: Int, tauSplit: Int, startNanos: Long): Int => Boolean = this match {
    case ABase => Miner.NeverSpawn
    case ASplit => if (extSize > tauSplit) _ == 0 else Miner.NeverSpawn
    case ATime(ms) =>
      val budget = (ms * 1e6).toLong
      _ => System.nanoTime - startNanos > budget
  }
}
/** Mine each spawned task's set-enumeration subtree fully in serial. */
case object ABase extends Mode
/** Decompose while ext(S) is larger than τ_split (Algorithm 8): a task with
  * |ext| > `EngineConfig.tauSplit` spawns its root's children.
  */
case object ASplit extends Mode
/** Mine for τ_time, then wrap remaining branches as subtasks (Algs 9–10). */
final case class ATime(tauTimeMillis: Double) extends Mode {
  require(tauTimeMillis >= 0, s"tau_time must be a non-negative number of ms, got $tauTimeMillis")
}

/** Engine knobs. `prioritizeBigTasks=false` emulates the ORIGINAL G-thinker
  * engine (per-thread local queues only: every subtask is mined by its
  * spawning worker, so one round finishes the job; tasks are dealt into p
  * static owner-hashed slices, with no big-task-first ordering and no
  * stealing); `true` is the paper's redesign (small subtasks still stay in
  * the local queue, but big ones go to a global queue + stealing ≈ sent back
  * to the driver, sorted big first and dealt round-robin into 2p slices that
  * idle workers pull for the next round; see `Engine.place`). A big subtask
  * goes back only once the subtree it belongs to has run for as long as one
  * more round costs (`Engine.spills`); that cost is measured, not set.
  * `tauSplit` is the paper's τ_split: A_split's threshold and the size from
  * which a task is big.
  */
final case class EngineConfig(
    parallelism: Int,
    prioritizeBigTasks: Boolean = true,
    tauSplit: Int = 100) {
  require(parallelism >= 1, s"parallelism must be at least 1, got $parallelism")
  require(tauSplit >= 0, s"tauSplit must be non-negative, got $tauSplit")
}

final case class EngineResult(
    maximal: Seq[Array[Int]],
    numCandidates: Long,
    wallMillis: Double,
    postMillis: Double,
    rounds: Int,
    tasksProcessed: Long,
    subtasksSpawned: Long,
    subtasksSpilled: Long,
    miningMillis: Double,
    materializeMillis: Double,
    maxTaskMillis: Double,
    peakHeapMB: Long,
    roundCostMillis: Double) {
  def numMaximal: Int = maximal.size
}

/** One partition's metric totals for one Spark job. It travels in the
  * collected `Emit` stream, so a retried Spark task is counted once.
  */
private final case class Totals(mineNs: Long = 0L, matNs: Long = 0L, tasks: Long = 0L,
                                spawned: Long = 0L, spilled: Long = 0L, maxTaskNs: Long = 0L) {
  def +(o: Totals): Totals = Totals(mineNs + o.mineNs, matNs + o.matNs, tasks + o.tasks,
    spawned + o.spawned, spilled + o.spilled, math.max(maxTaskNs, o.maxTaskNs))
}

private sealed trait Emit extends Serializable
private final case class EmitResult(vs: Array[Int]) extends Emit
private final case class EmitTask(t: QCTask) extends Emit
private final case class EmitTotals(t: Totals) extends Emit

/** The spawn job's partition body (round 0, Algorithms 4, 6, 7): one ego
  * task per vertex of the partition's slice of [0, spawnUpper), then the
  * partition's totals, whose `matNs` is its whole busy time.
  */
private final class SpawnBody(bc: Broadcast[LocalGraph], k: Int)
    extends ((TaskContext, Iterator[Int]) => Array[Emit]) with Serializable {
  def apply(ctx: TaskContext, it: Iterator[Int]): Array[Emit] = {
    val busy0 = System.nanoTime
    val graph = bc.value
    val out = ArrayBuffer.empty[Emit]
    it.foreach { v =>
      TaskSpawn.egoTask(graph, v, k).foreach { case (_, coreIds) =>
        out += EmitTask(QCTask(v, Array(v), coreIds.drop(1)))
      }
    }
    out += EmitTotals(Totals(matNs = System.nanoTime - busy0))
    out.toArray
  }
}

/** A round's partition body: materialize and mine the partition's placed
  * tasks and the subtasks they spawn (local-first, LIFO), emitting results,
  * spilled subtasks and the partition's totals. A placed
  * task and its local subtasks, its subtree, are mined back to back, because
  * the next placed task is taken only once the LIFO is empty. In the
  * redesigned engine a subtask spills when it is big and its subtree has run
  * for `roundCostNs` since the placed task's materialization began
  * (`Engine.spills`); every other subtask goes on the LIFO.
  */
private final class RoundBody(bc: Broadcast[LocalGraph], gamma: Double, tauSize: Int,
                              mode: Mode, conf: EngineConfig, roundCostNs: Long)
    extends ((TaskContext, Iterator[QCTask]) => Array[Emit]) with Serializable {
  def apply(ctx: TaskContext, it: Iterator[QCTask]): Array[Emit] = {
    val graph = bc.value
    val out = ArrayBuffer.empty[Emit]
    val local = ArrayBuffer.empty[QCTask] // LIFO of this partition's own subtasks
    var tot = Totals()
    var subtree0 = 0L // when the placed task of the current subtree started
    while (local.nonEmpty || it.hasNext) {
      val isPlaced = local.isEmpty
      val t = if (isPlaced) it.next() else local.remove(local.length - 1)
      val m0 = System.nanoTime
      if (isPlaced) subtree0 = m0
      val verts = new Array[Int](t.s.length + t.ext.length)
      System.arraycopy(t.s, 0, verts, 0, t.s.length)
      System.arraycopy(t.ext, 0, verts, t.s.length, t.ext.length)
      val (sub, oldIds) = GraphOps.induced(graph, verts)
      val matNs = System.nanoTime - m0
      var spawned, spilled = 0L
      val t1 = System.nanoTime
      val sink = (arr: Array[Int]) => {
        out += EmitResult(QuasiClique.canon(arr.map(oldIds))); ()
      }
      val spawnChild = (s: Array[Int], e: Array[Int]) => {
        spawned += 1
        val child = QCTask(t.root, s.map(oldIds), e.map(oldIds))
        if (conf.prioritizeBigTasks && Engine.spills(e.length, conf.tauSplit, System.nanoTime - subtree0, roundCostNs)) {
          spilled += 1; out += EmitTask(child)
        } else local += child
        ()
      }
      new Miner(sub, gamma, tauSize, sink).mine(
        ArrayBuffer.from(0 until t.s.length), ArrayBuffer.from(t.s.length until verts.length),
        mode.spawnRule(t.ext.length, conf.tauSplit, t1), spawnChild)
      val dt = System.nanoTime - t1
      tot += Totals(dt, matNs, 1L, spawned, spilled, dt)
    }
    out += EmitTotals(tot)
    out.toArray
  }
}

/** `Engine.place`'s flatMap body: a bucket's items, in order. */
private final class Unbucket[T] extends (ArrayBuffer[T] => ArrayBuffer[T]) with Serializable {
  def apply(bucket: ArrayBuffer[T]): ArrayBuffer[T] = bucket
}

/** The redesigned G-thinker execution engine on Spark.
  *
  * One Spark round = one job in which every partition mines its placed tasks
  * and, depth-first from a local stack, the subtasks they spawn, until both
  * are empty. Only a big subtask (|ext| ≥ τ_split, redesigned engine only)
  * of a subtree that has already run for O, the measured cost of one more
  * round, is spilled back to the driver, which re-places the spilled tasks
  * with `place` for the next round (see `spills` and `roundCost`). A subtree
  * that finishes within O never pays for a round. The redesigned engine
  * places a round's tasks in 2p slices that idle cores pull, so a worker
  * that draws a straggler does not also keep a full p-th of the rest (see
  * `place`).
  *
  * Rule: no lambda, `collect` or `fold` in an engine job. Every job hands
  * Spark only instances of named serializable classes (`SpawnBody`,
  * `RoundBody`, `Unbucket`) and is submitted with the `runJob` overload that
  * takes a `(TaskContext, Iterator) => U`. Spark's closure cleaner skips
  * named classes, but for each lambda it reads the class file that declares
  * it: `Engine$.class` for the engine's own lambdas, and `RDD.class` (184 KB)
  * plus `SparkContext.class` for `collect`, `fold` and the `Iterator => U`
  * overload of `runJob`, which all wrap the job's function in lambdas of
  * their own. On a warm `local[4]` context on 4 vCPUs, an empty
  * `mapPartitions(lambda).collect()` job took 15.8 ms against 7.2 ms for
  * `runJob` with a named `(TaskContext, Iterator) => U` (medians of 100
  * jobs); a named function given to the `Iterator => U` overload took 10.7 ms.
  * The engine paid that on the driver in its spawn job and in every round.
  */
object Engine {

  /** Full job: k-core prune, recode, spawn per-vertex ego tasks, mine. The
    * spawn job also measures O, the cost of one more round (`roundCost`).
    */
  def run(sc: SparkContext, g: LocalGraph, gamma: Double, tauSize: Int,
          mode: Mode, conf: EngineConfig): EngineResult = {
    val wall0 = System.nanoTime
    val mg = TaskSpawn.prelude(g, gamma, tauSize, recode = true)
    execute(sc, mg.graph, mg.ids, gamma, tauSize, mode, conf, wall0) { bc =>
      // round 0, one Spark job: spawn per-vertex ego tasks (Algorithms 4, 6, 7)
      val job0 = System.nanoTime
      val emitted = emits(sc.parallelize(0 until mg.spawnUpper, conf.parallelism), new SpawnBody(bc, mg.k))
      val busy = emitted.collect { case EmitTotals(t) => t.matNs }
      (emitted, roundCost(System.nanoTime - job0, busy.toSeq, math.min(conf.parallelism, sc.defaultParallelism)))
    }
  }

  /** Kernel-expansion entry (Tables 9, 11): initial tasks are given directly
    * (S = kernel, ext = its candidate pool), in ids of `gm`, whose vertex v
    * maps to original id `ids(v)`. No recoding, no per-vertex spawning. With
    * no spawn job there is no round to measure, so O = 0: every big subtask
    * spills as soon as it is spawned.
    */
  def runFromTasks(sc: SparkContext, gm: LocalGraph, ids: Array[Int],
                   tasks0: Array[QCTask], gamma: Double, tauSize: Int,
                   mode: Mode, conf: EngineConfig): EngineResult =
    execute(sc, gm, ids, gamma, tauSize, mode, conf, System.nanoTime)(_ => (tasks0.map(EmitTask), 0L))

  /** The cost O of one more round, in ns, measured on the spawn job: the
    * driver's wall time for the job (`jobNanos`, from building its RDD to
    * `runJob` returning) minus the least time its partitions' work can take
    * on the cores that ran it, max(longest busy time, Σ busy / `cores`),
    * where a partition's busy time is the time spent inside its task body.
    * What is left is what any round pays besides its work: job submission,
    * scheduling, serialization, the result's trip to the driver. Clamped at 0.
    */
  private[gthinker] def roundCost(jobNanos: Long, busyNanos: Seq[Long], cores: Int): Long = {
    val work = if (busyNanos.isEmpty) 0L else math.max(busyNanos.max, busyNanos.sum / cores)
    math.max(0L, jobNanos - work)
  }

  /** Whether the redesigned engine sends a freshly spawned subtask back to
    * the driver: it is big (|ext| ≥ τ_split) and the subtree it belongs to,
    * i.e. the placed task it descends from and that task's local subtasks,
    * has run for at least O (`roundCostNanos`). This is ski rental's
    * break-even rule, with mining on alone as renting and a round as buying:
    * a subtree that finishes within O never pays for a round, and one that
    * runs longer has mined alone for no longer than the round it then pays
    * for. A straggler still shares its big subtasks after O.
    */
  private[gthinker] def spills(extSize: Int, tauSplit: Int, subtreeNanos: Long, roundCostNanos: Long): Boolean =
    extSize >= tauSplit && subtreeNanos >= roundCostNanos

  /** Broadcast `gm`, take the initial emission and the round cost O (ns)
    * from `initial`, run rounds until no task is left, and map the results
    * back through `ids`.
    */
  private def execute(sc: SparkContext, gm: LocalGraph, ids: Array[Int],
                      gamma: Double, tauSize: Int, mode: Mode, conf: EngineConfig,
                      wall0: Long)(initial: Broadcast[LocalGraph] => (Array[Emit], Long)): EngineResult = {
    if (gm.n == 0)
      return EngineResult(Nil, 0, (System.nanoTime - wall0) / 1e6, 0.0, 0, 0, 0, 0, 0, 0, 0, usedHeapMB(), 0.0)
    val bc = sc.broadcast(gm)
    val results = ArrayBuffer.empty[Array[Int]]
    var totals  = Totals()
    var peakHeap = usedHeapMB()
    // keep what a job emitted and return the tasks for the next round
    def absorb(emitted: Array[Emit]): Seq[QCTask] = {
      val next = ArrayBuffer.empty[QCTask]
      emitted.foreach {
        case EmitResult(vs) => results += vs
        case EmitTask(t)    => next += t
        case EmitTotals(t)  => totals += t
      }
      peakHeap = math.max(peakHeap, usedHeapMB())
      next.toSeq
    }

    val (emitted0, roundCostNs) = initial(bc)
    var rounds = 0
    var tasks  = absorb(emitted0)
    while (tasks.nonEmpty) {
      rounds += 1
      val placed = place(sc, tasks, conf.parallelism, conf.prioritizeBigTasks, conf.tauSplit)(_.ext.length, _.root)
      tasks = absorb(emits(placed, new RoundBody(bc, gamma, tauSize, mode, conf, roundCostNs)))
    }
    bc.destroy()

    val wall1 = System.nanoTime
    // map results back to the original vertex ids, then post-process
    val mapped  = results.map(vs => QuasiClique.canon(vs.map(ids))).toSeq
    val maximal = Maximality.filterMaximal(mapped)
    val wall2 = System.nanoTime

    EngineResult(
      maximal, results.length.toLong, (wall1 - wall0) / 1e6, (wall2 - wall1) / 1e6,
      rounds, totals.tasks, totals.spawned, totals.spilled,
      totals.mineNs / 1e6, totals.matNs / 1e6, totals.maxTaskNs / 1e6,
      peakHeap, roundCostNs / 1e6)
  }

  /** Deal `items` into `slices` buckets. With `prioritizeBig` (the
    * redesigned engine: global queue + stealing), items with size >=
    * `bigFrom` come first, largest first, then the rest in arrival order,
    * dealt round-robin, so the first buckets start with the biggest items.
    * Otherwise (the original engine) each item stays with the worker that
    * owns it, FIFO — no prioritization, no stealing.
    */
  private[gthinker] def buckets[T](items: Seq[T], slices: Int, prioritizeBig: Boolean, bigFrom: Int)
                (size: T => Int, owner: T => Int): Array[ArrayBuffer[T]] = {
    val out = Array.fill(slices)(ArrayBuffer.empty[T])
    if (prioritizeBig) {
      val (big, small) = items.partition(size(_) >= bigFrom)
      (big.sortBy(-size(_)) ++ small).zipWithIndex.foreach { case (x, i) => out(i % slices) += x }
    } else items.foreach(x => out(owner(x) % slices) += x)
    out
  }

  /** Slices per worker in the redesigned engine's placement. Two was
    * measured on 4 vCPUs: four was no faster on `engine-results-enron`
    * (wall −2%) and cost 7–10% more CPU there and on `engine-fine-hyves`.
    */
  private val PulledSlicesPerWorker = 2

  /** `buckets` as an RDD whose partition i holds bucket i, without a
    * shuffle: one bucket per slice of `parallelize`. The original engine
    * gets p static slices. The redesigned engine gets 2p slices that idle
    * cores pull: Spark starts slices 0 … p−1, which begin with the p
    * biggest items, and hands each later slice to whichever core frees
    * first (Spark's form of stealing from the global queue). That needs a
    * cluster that runs at most p tasks at once (`defaultParallelism` ≤ p):
    * on a larger one, 2p slices would run on 2p cores, so the redesigned
    * engine keeps p slices there and p still bounds the workers.
    */
  def place[T: ClassTag](sc: SparkContext, items: Seq[T], p: Int, prioritizeBig: Boolean, bigFrom: Int)
                        (size: T => Int, owner: T => Int): RDD[T] = {
    val slices = if (prioritizeBig && sc.defaultParallelism <= p) PulledSlicesPerWorker * p else p
    sc.parallelize(buckets(items, slices, prioritizeBig, bigFrom)(size, owner).toSeq, slices).flatMap(new Unbucket[T])
  }

  /** One Spark job: `body` runs on every partition of `rdd`, and the driver
    * concatenates what the partitions emitted, in partition order.
    */
  private def emits[T](rdd: RDD[T], body: (TaskContext, Iterator[T]) => Array[Emit]): Array[Emit] =
    Array.concat(rdd.sparkContext.runJob(rdd, body).toSeq: _*)

  private def usedHeapMB(): Long = {
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / (1024 * 1024)
  }
}
