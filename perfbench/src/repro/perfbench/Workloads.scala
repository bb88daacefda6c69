package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import repro.core._
import repro.graph.{GraphGen, GraphOps, LocalGraph}
import repro.gthinker._
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One mining input: a graph and its (γ, τ_size). */
final case class Input(name: String, graph: LocalGraph, gamma: Double, tauSize: Int) {
  def k: Int = QuasiClique.ceilGamma(gamma, tauSize - 1)
  /** Vertices and edges of the mining k-core, computed once, outside any job. */
  lazy val coreSize: (Long, Long) = { val (gK, _) = GraphOps.kCoreSubgraph(graph, k); (gK.n.toLong, gK.numEdges.toLong) }
}

/** What one job returned: the maximal sets per input, the counts that must
  * repeat exactly from job to job, and whether the job hit its cap.
  */
final case class Outcome(maximal: Seq[Seq[Array[Int]]], exact: Map[String, Long], capHit: Boolean)

/** A traced job: its outcome, the id of its root span and the layer metrics
  * that are not span times.
  */
final case class TracedJob(outcome: Outcome, root: Int, raw: Map[String, Double])

/** A workload: inputs made from the seed, one job (the timed path), a
  * reference answer from a different path, and a traced variant of the job.
  */
sealed trait Workload {
  def name: String
  /** Serial workloads report `core.other_ms`, engine ones `gthinker.other_ms`. */
  def residual: String
  def inputs(seed: Long): Seq[Input]
  def reference(sc: SparkContext, in: Seq[Input]): Seq[Seq[Array[Int]]]
  def run(sc: SparkContext, in: Seq[Input]): Outcome
  def runTraced(sc: SparkContext, in: Seq[Input], tr: Tracer, jl: JobListener): TracedJob
}

object Workloads {
  /** Wall-clock cap of one job; a job that needs longer counts as failed. */
  val CapMillis = 60000L
  val parallelism: Int = Runtime.getRuntime.availableProcessors

  /** Seed 0 is the Table dataset exactly as generated. Any other seed
    * relabels its vertices at random, except that the vertices of the
    * mining k-core (for the dataset's γ and τ_size) keep their relative
    * order: the program reads a different graph and must return different
    * ids, while the search it does after k-core pruning, and hence its
    * cost, stays the same. (A free relabelling changes tie order in the
    * cover recoding and moved serial time on Hyves-like by up to 35%
    * between seeds; GraphGen seeds change the result count itself, down
    * to zero.)
    */
  def relabel(d: GraphGen.Dataset, seed: Long): Input = {
    val g = d.graph
    if (seed == 0) return Input(d.name, g, d.gamma, d.tauSize)
    val n    = g.n
    val core = GraphOps.kCoreMask(g, d.k)
    val rnd  = new java.util.Random(seed * 1000003L + d.name.hashCode)
    val slots = Array.range(0, n)
    var i = n - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val t = slots(i); slots(i) = slots(j); slots(j) = t; i -= 1 }
    val nCore     = core.count(identity)
    val coreSlots = slots.take(nCore).sorted
    val newId = new Array[Int](n)
    var c = 0; var o = nCore; var v = 0
    while (v < n) {
      if (core(v)) { newId(v) = coreSlots(c); c += 1 } else { newId(v) = slots(o); o += 1 }
      v += 1
    }
    val edges = g.packedEdges.map(e => LocalGraph.pack(newId(LocalGraph.unpackU(e)), newId(LocalGraph.unpackV(e))))
    Input(d.name, LocalGraph.fromEdges(n, edges), d.gamma, d.tauSize)
  }

  val all: Seq[Workload] = Seq(
    SerialQuickPlus("serial-t15", s => Seq(GraphGen.hyvesLike(), GraphGen.enronLike(), GraphGen.gse10158Like()).map(relabel(_, s))),
    EngineRun("engine-fine-hyves", s => relabel(GraphGen.hyvesLike(), s), ATime(1.0)),
    EngineRun("engine-results-enron", s => relabel(GraphGen.enronLike().copy(tauSize = 21), s), ATime(100.0)),
    // tiny graphs for the benchmark's self-tests
    SerialQuickPlus("smoke-serial", s => Seq(relabel(GraphGen.gse1730Like(), s))),
    EngineRun("smoke-engine", s => relabel(GraphGen.gse1730Like(), s), ATime(1.0)))

  def byName(n: String): Option[Workload] = all.find(_.name == n)

  val threadMx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

import Workloads._

/** Table 15: `QuickPlus.mineSerial` over each input in turn; no Spark. */
final case class SerialQuickPlus(name: String, make: Long => Seq[Input]) extends Workload {
  def residual = "core.other_ms"
  def inputs(seed: Long): Seq[Input] = make(seed)

  /** A_base on the engine: a different traversal and driver. */
  def reference(sc: SparkContext, in: Seq[Input]): Seq[Seq[Array[Int]]] =
    in.map(i => Engine.run(sc, i.graph, i.gamma, i.tauSize, ABase, EngineConfig(parallelism)).maximal)

  def run(sc: SparkContext, in: Seq[Input]): Outcome = {
    val outs = in.map(i => QuickPlus.mineSerial(i.graph, i.gamma, i.tauSize, capMillis = CapMillis))
    Outcome(outs.map(_.maximal),
      Map("candidates" -> outs.map(_.numResults.toLong).sum, "maximal" -> outs.map(_.numMaximal.toLong).sum),
      outs.exists(_.timedOut))
  }

  /** The same job replayed through the public calls `mineSerial` makes, with
    * a span around each: k-core, recoding, every ego-task spawn, every
    * miner run and the maximality filter. Its maximal sets and counts pass
    * the same gate as the untraced `mineSerial` jobs it alternates with, so
    * a replay that drifted from `mineSerial` fails the run.
    */
  def runTraced(sc: SparkContext, in: Seq[Input], tr: Tracer, jl: JobListener): TracedJob = {
    val timers  = new PhaseTimers
    val taskMs  = ArrayBuffer.empty[Double]
    var alloc, spawned, extMax, coreV, coreE, cands = 0L
    var capHit  = false
    var root    = -1
    val maximal = tr.span("job") {
      root = tr.current
      val deadline = System.nanoTime + CapMillis * 1000000L
      in.map { i =>
        val k = i.k
        val (gK, idsK) = tr.span("graph.kcore")(GraphOps.kCoreSubgraph(i.graph, k))
        coreV += gK.n; coreE += gK.numEdges
        val (gm, ids) =
          if (gK.n > 0) { val (g2, ids2) = tr.span("graph.recode")(GraphOps.recodeByCover(gK)); (g2, ids2.map(idsK)) }
          else (gK, idsK)
        val spawnUpper = if (gm.n > 0) gm.n - gm.degree(0) else gm.n
        val out = ArrayBuffer.empty[Array[Int]]
        var v = 0
        while (v < spawnUpper && !capHit) {
          tr.span("core.spawn")(TaskSpawn.egoTask(gm, v, k)) match {
            case Some((task, taskIds)) =>
              spawned += 1; extMax = math.max(extMax, task.n - 1L)
              val miner = new Miner(task, i.gamma, i.tauSize,
                arr => out += QuasiClique.canon(arr.map(x => ids(taskIds(x)))),
                MinerConfig.quickPlus, timers, deadline)
              val a0 = threadMx.getCurrentThreadAllocatedBytes
              val t0 = System.nanoTime
              try tr.span("core.miner")(miner.recursiveMine(ArrayBuffer(0), ArrayBuffer.from(1 until task.n)))
              catch { case _: Miner.DeadlineExceeded => capHit = true }
              taskMs += (System.nanoTime - t0) / 1e6
              alloc += threadMx.getCurrentThreadAllocatedBytes - a0
            case None => ()
          }
          v += 1
        }
        cands += out.length
        tr.span("core.post")(Maximality.filterMaximal(out.toSeq))
      }
    }
    val nMax  = maximal.map(_.length.toLong).sum
    val phase = Seq("bound" -> timers.boundNs, "cover" -> timers.coverNs,
                    "critical" -> timers.criticalNs, "lookahead" -> timers.lookaheadNs)
    val raw = phase.map { case (n, ns) => s"core.miner.${n}_ms" -> ns / 1e6 }.toMap ++ Map(
      "core.miner.untimed_ms"   -> (taskMs.sum - phase.map(_._2).sum / 1e6),
      "core.miner.task_ms.p50"  -> median(taskMs.toSeq),
      "core.miner.task_ms.max"  -> (if (taskMs.isEmpty) 0.0 else taskMs.max),
      "core.miner.candidates"   -> cands.toDouble,
      "core.miner.alloc_mb"     -> alloc / 1048576.0,
      "core.spawn.tasks"        -> spawned.toDouble,
      "core.spawn.ext_max"      -> extMax.toDouble,
      "graph.core_vertices"     -> coreV.toDouble,
      "graph.core_edges"        -> coreE.toDouble,
      "core.post.in"            -> cands.toDouble,
      "core.post.out"           -> nMax.toDouble,
      "core.post.yield"         -> (if (cands == 0) 0.0 else nMax.toDouble / cands))
    val exact = Map("candidates" -> cands, "maximal" -> nMax, "spawn_tasks" -> spawned,
                    "ext_max" -> extMax, "core_vertices" -> coreV, "core_edges" -> coreE)
    TracedJob(Outcome(maximal, exact, capHit), root, raw)
  }
}

/** Tables 6–8: one `Engine.run` on Spark with p = nproc and τ_split = 50. */
final case class EngineRun(name: String, make: Long => Input, mode: Mode) extends Workload {
  def residual = "gthinker.other_ms"
  def inputs(seed: Long): Seq[Input] = Seq(make(seed))
  private def conf = EngineConfig(parallelism, tauSplit = 50)

  /** Serial Quick+: no Spark, no decomposition. */
  def reference(sc: SparkContext, in: Seq[Input]): Seq[Seq[Array[Int]]] =
    in.map(i => QuickPlus.mineSerial(i.graph, i.gamma, i.tauSize, capMillis = CapMillis).maximal)

  def run(sc: SparkContext, in: Seq[Input]): Outcome = {
    val rs = in.map(i => Engine.run(sc, i.graph, i.gamma, i.tauSize, mode, conf))
    Outcome(rs.map(_.maximal), Map("maximal" -> rs.map(_.numMaximal.toLong).sum), capHit = false)
  }

  /** `Engine.run` under a span, split by clocks that do not depend on the
    * span: the listener's Spark job times and the engine's own
    * `wallMillis`/`postMillis`. Prelude runs from the call to the first job,
    * spawn is the first job, rounds the later ones, driver the gaps between
    * consecutive jobs, and post the engine's post-processing, placed where
    * its mining loop ended. What none of them covers (the merge after the
    * last round, clean-up after post-processing, clock disagreement) is the
    * run's self time, the residual.
    */
  def runTraced(sc: SparkContext, in: Seq[Input], tr: Tracer, jl: JobListener): TracedJob = {
    val i = in.head
    jl.start(sc)
    val gc0 = gcMillis()
    val anchorMs = System.currentTimeMillis; val anchorNs = System.nanoTime
    var root, runId = -1
    val r = tr.span("job") {
      root = tr.current
      tr.span("gthinker.run") { runId = tr.current; Engine.run(sc, i.graph, i.gamma, i.tauSize, mode, conf) }
    }
    val gcMs = gcMillis() - gc0
    val (jobs, tasks) = jl.stop(sc)
    // one Spark job spawns the tasks, one more runs each round
    if (jobs.length != r.rounds + 1)
      throw new IllegalStateException(s"the listener saw ${jobs.length} Spark jobs for ${r.rounds} rounds")
    val run = tr.all.find(_.id == runId).get
    def ns(ms: Long): Long = anchorNs + (ms - anchorMs) * 1000000L
    val loopEnd = run.start + (r.wallMillis * 1e6).toLong
    tr.add("gthinker.prelude", run.start, jobs.headOption.fold(loopEnd)(j => ns(j.startMs)), runId)
    jobs.zipWithIndex.foreach { case (j, k) =>
      tr.add(if (k == 0) "gthinker.spawn" else "gthinker.round", ns(j.startMs), ns(j.endMs), runId)
      if (k + 1 < jobs.length) tr.add("gthinker.driver", ns(j.endMs), ns(jobs(k + 1).startMs), runId)
    }
    tr.add("gthinker.post", loopEnd, loopEnd + (r.postMillis * 1e6).toLong, runId)

    val rounds    = jobs.drop(1)
    val roundMs   = rounds.map(j => (j.endMs - j.startMs).toDouble)
    val stageJob  = rounds.flatMap(j => j.stageIds.map(_ -> j.id)).toMap
    val roundTask = tasks.filter(t => stageJob.contains(t.stageId))
    val busy      = roundTask.map(_.runMs).sum.toDouble
    val skews     = rounds.map { j =>
      val rt = roundTask.filter(_.stageId == j.stageIds.max).map(_.runMs.toDouble)
      if (rt.isEmpty) 1.0 else rt.max / math.max(1.0, median(rt))
    }
    val nCand = r.numCandidates.toDouble
    val raw = Map(
      "gthinker.rounds"         -> r.rounds.toDouble,
      "gthinker.tasks"          -> r.tasksProcessed.toDouble,
      "gthinker.subtasks"       -> r.subtasksSpawned.toDouble,
      "gthinker.round_ms.p50"   -> median(roundMs),
      "gthinker.round_ms.max"   -> (if (roundMs.isEmpty) 0.0 else roundMs.max),
      "gthinker.busy_ms"        -> busy,
      "gthinker.idle_frac"      -> (if (roundMs.isEmpty) 0.0 else 1.0 - busy / (parallelism * roundMs.sum)),
      "gthinker.skew.p50"       -> median(skews),
      "gthinker.sched_delay_ms" -> tasks.map(_.schedDelayMs).sum.toDouble,
      "gthinker.shuffle_bytes"  -> tasks.map(_.shuffleBytes).sum.toDouble,
      "gthinker.result_bytes"   -> tasks.map(_.resultBytes).sum.toDouble,
      "gthinker.gc_ms"          -> gcMs.toDouble,
      "gthinker.mine_ms"        -> r.miningMillis,
      "gthinker.materialize_ms" -> r.materializeMillis,
      "gthinker.max_task_ms"    -> r.maxTaskMillis,
      "core.miner.ms"           -> r.miningMillis,
      "core.miner.task_ms.max"  -> r.maxTaskMillis,
      "core.miner.candidates"   -> nCand,
      "core.post.ms"            -> r.postMillis,
      "core.post.in"            -> nCand,
      "core.post.out"           -> r.numMaximal.toDouble,
      "core.post.yield"         -> (if (nCand == 0) 0.0 else r.numMaximal / nCand),
      "graph.core_vertices"     -> i.coreSize._1.toDouble,
      "graph.core_edges"        -> i.coreSize._2.toDouble)
    val exact = Map("maximal" -> r.numMaximal.toLong)
    TracedJob(Outcome(Seq(r.maximal), exact, capHit = false), root, raw)
  }
}
