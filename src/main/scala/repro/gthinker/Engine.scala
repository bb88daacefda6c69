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
final case class QCTask(s: Array[Int], ext: Array[Int])

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

/** Engine knobs: p workers, and the paper's τ_split, A_split's threshold
  * and the size from which a task is big. Big subtasks are spilled as
  * `Engine.spills` decides and dealt first by `Engine.buckets`.
  */
final case class EngineConfig(
    parallelism: Int,
    tauSplit: Int = 100) {
  require(parallelism >= 1, s"parallelism must be at least 1, got $parallelism")
  require(tauSplit >= 0, s"tauSplit must be non-negative, got $tauSplit")
}

/** One engine job's outcome. `maximal` holds the maximal sets in original
  * ids, size descending, then lexicographic. `numCandidates` (Table 5's
  * #results) counts every set the miners emitted, before any maximality
  * filter; it is counted on the executors (`Totals.candidates`), since a
  * round ships only its partitions' maximal candidates.
  */
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
  * partition's `PartOut`, so a retried Spark task is counted once.
  * `candidates` counts the sets the partition's miners emitted, before the
  * partition keeps only its maximal ones.
  */
private final case class Totals(mineNs: Long = 0L, matNs: Long = 0L, tasks: Long = 0L,
                                spawned: Long = 0L, spilled: Long = 0L, maxTaskNs: Long = 0L,
                                candidates: Long = 0L) {
  def +(o: Totals): Totals = Totals(mineNs + o.mineNs, matNs + o.matNs, tasks + o.tasks,
    spawned + o.spawned, spilled + o.spilled, math.max(maxTaskNs, o.maxTaskNs),
    candidates + o.candidates)
}

/** The one record of mined work: its results, the tasks it gives back for
  * the next round and its metric totals. Each partition of an engine job
  * returns one, and so does each placed task's subtree within a round
  * (`RoundBody.mineSubtree`).
  */
private final case class PartOut(results: Array[Array[Int]], tasks: Array[QCTask], totals: Totals)

/** The spawn job's partition body (round 0, Algorithms 4, 6, 7): one ego
  * task per vertex of the partition's slice of [0, spawnUpper), in a
  * `PartOut` with no results, whose totals' `matNs` is the partition's
  * whole busy time.
  */
private final class SpawnBody(bc: Broadcast[LocalGraph], k: Int)
    extends ((TaskContext, Iterator[Int]) => PartOut) with Serializable {
  def apply(ctx: TaskContext, it: Iterator[Int]): PartOut = {
    val busy0 = System.nanoTime
    val graph = bc.value
    val tasks = ArrayBuffer.empty[QCTask]
    it.foreach { v =>
      TaskSpawn.egoTask(graph, v, k).foreach { case (_, coreIds) =>
        tasks += QCTask(Array(v), coreIds.drop(1))
      }
    }
    PartOut(Array.empty, tasks.toArray, Totals(matNs = System.nanoTime - busy0))
  }
}

/** A round's partition body. The partition's placed bucket goes into the
  * executor's `StealPool`: the partition mines its own placed tasks in
  * bucket order, then steals unstarted placed tasks from the round's other
  * running partitions in the same JVM, and returns once every task of its
  * bucket has been mined, by it or by a thief. Each placed task is mined
  * with its whole subtree (`mineSubtree`, one `PartOut` per subtree), by
  * whichever partition claimed it. The partition's `PartOut` joins the
  * subtrees of its own bucket, in bucket order: their candidates that no
  * other of them contains (a set contained in another valid one is maximal
  * nowhere, so the driver's final filter returns the same sets), their
  * spilled subtasks and the sum of their totals, which counts every
  * candidate, before the filter.
  */
private final class RoundBody(bc: Broadcast[LocalGraph], gamma: Double, tauSize: Int,
                              mode: Mode, tauSplit: Int, roundCostNs: Long)
    extends ((TaskContext, Iterator[QCTask]) => PartOut) with Serializable {
  def apply(ctx: TaskContext, it: Iterator[QCTask]): PartOut = {
    val graph = bc.value
    val subtrees = RoundBody.pool.run((ctx.stageId, ctx.stageAttemptNumber), ctx.partitionId, it.toArray)(
      mineSubtree(graph, _))
    PartOut(Maximality.filterMaximal(subtrees.flatMap(_.results).toSeq).toArray, subtrees.flatMap(_.tasks),
      subtrees.foldLeft(Totals())(_ + _.totals))
  }

  /** Mine `placed` and, depth-first from a local LIFO, the subtasks it
    * spawns, until the LIFO is empty. A subtask spills when it is big
    * (|ext| ≥ `tauSplit`) and the subtree has run for `roundCostNs` since
    * the placed task's materialization began (`Engine.spills`); every
    * other subtask goes on the LIFO. The subtree's `PartOut` holds its
    * candidates (in global task ids, each sorted), its spilled subtasks and
    * its totals, with every candidate counted.
    */
  private def mineSubtree(graph: LocalGraph, placed: QCTask): PartOut = {
    val found = ArrayBuffer.empty[Array[Int]]
    val spilledOut = ArrayBuffer.empty[QCTask]
    val local = ArrayBuffer(placed) // LIFO of the subtree's own subtasks
    var tot = Totals()
    val subtree0 = System.nanoTime
    while (local.nonEmpty) {
      val t = local.remove(local.length - 1)
      val m0 = System.nanoTime
      val (sub, oldIds) = GraphOps.induced(graph, t.s ++ t.ext)
      val matNs = System.nanoTime - m0
      var spawned, spilled = 0L
      val t1 = System.nanoTime
      val sink = (arr: Array[Int]) => {
        found += QuasiClique.canon(arr.map(oldIds)); ()
      }
      val spawnChild = (s: Array[Int], e: Array[Int]) => {
        spawned += 1
        val child = QCTask(s.map(oldIds), e.map(oldIds))
        if (Engine.spills(e.length, tauSplit, System.nanoTime - subtree0, roundCostNs)) {
          spilled += 1; spilledOut += child
        } else local += child
        ()
      }
      new Miner(sub, gamma, tauSize, sink).mine(
        ArrayBuffer.from(0 until t.s.length), ArrayBuffer.from(t.s.length until oldIds.length),
        mode.spawnRule(t.ext.length, tauSplit, t1), spawnChild)
      val dt = System.nanoTime - t1
      tot += Totals(dt, matNs, 1L, spawned, spilled, dt)
    }
    PartOut(found.toArray, spilledOut.toArray, tot.copy(candidates = found.length))
  }
}

private object RoundBody {
  /** The executor JVM's queue of the rounds' placed tasks. */
  val pool = new StealPool[QCTask, PartOut]
}

/** `Engine.fromBuckets`' flatMap body: a bucket's items, in order. */
private final class Unbucket[T] extends (Iterable[T] => Iterable[T]) with Serializable {
  def apply(bucket: Iterable[T]): Iterable[T] = bucket
}

/** The redesigned G-thinker execution engine on Spark.
  *
  * One Spark round = one job in which every partition mines its placed tasks
  * and, depth-first from a local stack, the subtasks they spawn, until both
  * are empty. Only a big subtask (|ext| ≥ τ_split) of a subtree that has
  * already run for O, the measured cost of one more round, is spilled back
  * to the driver, which deals the spilled tasks big-first into p buckets
  * for the next round, one Spark task per worker (see `spills`, `roundCost`
  * and `buckets`). A subtree that finishes within O never pays for a round.
  * Within a round the partitions in one executor JVM share one task queue
  * (`StealPool`, the paper's per-machine global queue): a partition whose
  * bucket is empty steals the next unstarted placed task of another running
  * partition and mines its whole subtree, so a worker that draws a straggler
  * does not also keep a fixed p-th of the rest. `buckets` is the one
  * placement: the rounds deal their big tasks first, and Table 4's apps
  * (`repro.baselines.GThinkerApps`) deal per-vertex tasks with it too, the
  * original engine's owner placement being the deal with nothing big. Each
  * partition of a round ships only the candidates that no other candidate
  * of its bucket contains (`RoundBody`), and counts them all.
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
      val parts = sc.runJob(sc.parallelize(0 until mg.spawnUpper, conf.parallelism), new SpawnBody(bc, mg.k))
      (parts, roundCost(System.nanoTime - job0, parts.map(_.totals.matNs).toSeq, math.min(conf.parallelism, sc.defaultParallelism)))
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
    execute(sc, gm, ids, gamma, tauSize, mode, conf, System.nanoTime)(_ =>
      (Array(PartOut(Array.empty, tasks0, Totals())), 0L))

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

  /** Whether the engine sends a freshly spawned subtask back to the
    * driver: it is big (|ext| ≥ τ_split) and the subtree it belongs to,
    * i.e. the placed task it descends from and that task's local subtasks,
    * has run for at least O (`roundCostNanos`). This is ski rental's
    * break-even rule, with mining on alone as renting and a round as buying:
    * a subtree that finishes within O never pays for a round, and one that
    * runs longer has mined alone for no longer than the round it then pays
    * for. A straggler still shares its big subtasks after O.
    */
  private[gthinker] def spills(extSize: Int, tauSplit: Int, subtreeNanos: Long, roundCostNanos: Long): Boolean =
    extSize >= tauSplit && subtreeNanos >= roundCostNanos

  /** Broadcast `gm`, take the initial `PartOut`s and the round cost O (ns)
    * from `initial`, run rounds until no task is left, and map the results
    * back through `ids`. Each round's partitions return one `PartOut`
    * each, which the driver absorbs in partition order. The rounds ship
    * only each partition's maximal candidates, so the driver holds no more
    * than those; it filters them once more.
    */
  private def execute(sc: SparkContext, gm: LocalGraph, ids: Array[Int],
                      gamma: Double, tauSize: Int, mode: Mode, conf: EngineConfig,
                      wall0: Long)(initial: Broadcast[LocalGraph] => (Array[PartOut], Long)): EngineResult = {
    if (gm.n == 0)
      return EngineResult(Nil, 0, (System.nanoTime - wall0) / 1e6, 0.0, 0, 0, 0, 0, 0, 0, 0, usedHeapMB(), 0.0)
    val bc = sc.broadcast(gm)
    val results = ArrayBuffer.empty[Array[Int]]
    var totals  = Totals()
    var peakHeap = usedHeapMB()
    // keep a job's partition records, in partition order, and return the tasks for the next round
    def absorb(parts: Array[PartOut]): Seq[QCTask] = {
      val next = ArrayBuffer.empty[QCTask]
      parts.foreach { p =>
        results ++= p.results
        next ++= p.tasks
        totals += p.totals
      }
      peakHeap = math.max(peakHeap, usedHeapMB())
      next.toSeq
    }

    val (parts0, roundCostNs) = initial(bc)
    var rounds = 0
    var tasks  = absorb(parts0)
    while (tasks.nonEmpty) {
      rounds += 1
      val placed = fromBuckets(sc, buckets(tasks, conf.parallelism, conf.tauSplit)(_.ext.length).toSeq)
      tasks = absorb(sc.runJob(placed, new RoundBody(bc, gamma, tauSize, mode, conf.tauSplit, roundCostNs)))
    }
    bc.destroy()

    val wall1 = System.nanoTime
    // map results back to the original vertex ids, then post-process
    val mapped  = results.map(vs => QuasiClique.canon(vs.map(ids))).toSeq
    val maximal = Maximality.filterMaximal(mapped)
    val wall2 = System.nanoTime

    EngineResult(
      maximal, totals.candidates, (wall1 - wall0) / 1e6, (wall2 - wall1) / 1e6,
      rounds, totals.tasks, totals.spawned, totals.spilled,
      totals.mineNs / 1e6, totals.matNs / 1e6, totals.maxTaskNs / 1e6,
      peakHeap, roundCostNs / 1e6)
  }

  /** Deal `items` into `slices` buckets, round-robin: items with size >=
    * `bigFrom` first, largest first, then the rest in arrival order, so the
    * first buckets start with the biggest items. A round deals its tasks
    * into p buckets, one per worker, and bucket i becomes partition i
    * (`fromBuckets`); within an executor the partitions then take each
    * other's unstarted tasks from the front of their buckets (`StealPool`),
    * biggest first. A `bigFrom` above every size deals nothing as big: an
    * arrival-order round-robin, item j to bucket j mod `slices`, which is
    * the original G-thinker's owner placement (Table 4's G-thinker column).
    */
  private[repro] def buckets[T](items: Seq[T], slices: Int, bigFrom: Int)(size: T => Int): Array[ArrayBuffer[T]] = {
    val out = Array.fill(slices)(ArrayBuffer.empty[T])
    val (big, small) = items.partition(size(_) >= bigFrom)
    (big.sortBy(-size(_)) ++ small).zipWithIndex.foreach { case (x, i) => out(i % slices) += x }
    out
  }

  /** An RDD whose partition i holds bucket i, in order: one bucket per slice of `parallelize`, no shuffle. */
  def fromBuckets[T: ClassTag](sc: SparkContext, buckets: Seq[Iterable[T]]): RDD[T] =
    sc.parallelize(buckets, buckets.length).flatMap(new Unbucket[T])

  private def usedHeapMB(): Long = {
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / (1024 * 1024)
  }
}
