package repro.perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.{SparkConf, SparkContext}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import Workloads.median

/** Metric names and units. BENCHMARK.json lists the same names; the
  * benchmark's self-test checks that the two agree.
  */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "job_s" -> "s", "cpu_s" -> "s", "live_heap_mb" -> "MB", "setup_s" -> "s", "ok_frac" -> "frac")

  val perLayer: Seq[(String, String)] = Seq(
    "graph.kcore_ms" -> "ms", "graph.recode_ms" -> "ms", "graph.core_vertices" -> "count", "graph.core_edges" -> "count",
    "core.spawn.ms" -> "ms", "core.spawn.tasks" -> "count", "core.spawn.ext_max" -> "count",
    "core.miner.ms" -> "ms", "core.miner.bound_ms" -> "ms", "core.miner.cover_ms" -> "ms",
    "core.miner.critical_ms" -> "ms", "core.miner.lookahead_ms" -> "ms", "core.miner.untimed_ms" -> "ms",
    "core.miner.task_ms.p50" -> "ms", "core.miner.task_ms.max" -> "ms", "core.miner.candidates" -> "count",
    "core.miner.alloc_mb" -> "MB",
    "core.post.ms" -> "ms", "core.post.in" -> "count", "core.post.out" -> "count", "core.post.yield" -> "ratio",
    "gthinker.prelude_ms" -> "ms", "gthinker.spawn_ms" -> "ms", "gthinker.rounds" -> "count",
    "gthinker.tasks" -> "count", "gthinker.subtasks" -> "count", "gthinker.round_ms.p50" -> "ms",
    "gthinker.round_ms.max" -> "ms", "gthinker.driver_gap_ms" -> "ms", "gthinker.busy_ms" -> "ms",
    "gthinker.idle_frac" -> "frac", "gthinker.skew.p50" -> "ratio", "gthinker.sched_delay_ms" -> "ms",
    "gthinker.shuffle_bytes" -> "bytes", "gthinker.result_bytes" -> "bytes", "gthinker.gc_ms" -> "ms",
    "gthinker.mine_ms" -> "ms", "gthinker.materialize_ms" -> "ms", "gthinker.max_task_ms" -> "ms",
    "gthinker.post_ms" -> "ms",
    "core.other_ms" -> "ms", "gthinker.other_ms" -> "ms", "trace.overhead_frac" -> "frac",
    "bench.warmup_s" -> "s", "bench.calib_ms" -> "ms", "bench.job_wall_s" -> "s")

  /** Span name -> the metric its summed self time feeds. */
  val fromSpan: Map[String, String] = Map(
    "graph.kcore" -> "graph.kcore_ms", "graph.recode" -> "graph.recode_ms",
    "core.spawn" -> "core.spawn.ms", "core.miner" -> "core.miner.ms", "core.post" -> "core.post.ms",
    "gthinker.prelude" -> "gthinker.prelude_ms", "gthinker.spawn" -> "gthinker.spawn_ms",
    "gthinker.driver" -> "gthinker.driver_gap_ms", "gthinker.post" -> "gthinker.post_ms")

  /** Spans that only group others; their self time is the residual. */
  val containers = Set("job", "gthinker.run")
}

/** The answer gate: a job passes only if its maximal sets equal the
  * reference's and its exact counts equal those of every earlier job.
  */
object Gate {
  type Key = Set[Vector[Int]]
  def key(ms: Seq[Array[Int]]): Key = ms.map(_.toVector).toSet

  def check(o: Outcome, ref: Seq[Key], expected: mutable.Map[String, Long]): Option[String] = {
    if (o.capHit) return Some("hit the wall-clock cap")
    if (o.maximal.length != ref.length) return Some(s"${o.maximal.length} answers for ${ref.length} inputs")
    for (((m, r), i) <- o.maximal.zip(ref).zipWithIndex if m.length != r.size || key(m) != r)
      return Some(s"input $i: ${m.length} maximal sets differ from the reference's ${r.size}")
    for ((k, v) <- o.exact) {
      val e = expected.getOrElseUpdate(k, v)
      if (e != v) return Some(s"exact count $k = $v, earlier jobs had $e")
    }
    None
  }

  /** The outcome with one vertex dropped from its first maximal set (or a
    * bogus set added): used to show that the gate rejects a wrong answer.
    */
  def corrupt(o: Outcome): Outcome = {
    val first = o.maximal.head
    val bad = if (first.nonEmpty) first.updated(0, first.head.dropRight(1)) else Seq(Array(0, 1, 2))
    o.copy(maximal = o.maximal.updated(0, bad))
  }
}

/** Closed-loop benchmark runner: one client runs the workload's jobs back to
  * back, checks each answer, and prints one JSON line of metrics.
  *
  *   PerfBench --workload W --seed N --seconds S --trace 0|1 --out DIR
  *             [--git-sha SHA] [--source-digest D] [--corrupt-answers]
  *
  * With --trace 0 every job is untraced and the end-to-end metrics are
  * reported. With --trace 1 traced and untraced jobs alternate, the layer
  * metrics are medians over the traced ones, and trace.overhead_frac
  * compares the two kinds.
  */
object PerfBench {
  val SetupWarm   = 2
  val SetupReps   = 7
  val MinWarmJobs = 2
  val WarmSeconds = 5.0
  /** Calibration time, in ms, of the host speed the end-to-end times are
    * scaled to (about the median of the 4-vCPU Xeon host the benchmark was
    * defined on).
    */
  val CalibRefMs  = 50.0

  final case class JobRec(wallS: Double, cpuS: Double, traced: Boolean,
                          error: Option[String], layer: Map[String, Double])

  /** Heap in use after a full collection, the lower of two tries: a
    * collection that cannot run at once (say, while a native call pins an
    * array) leaves garbage in the first reading.
    */
  private def retainedHeapMb(): Double = (1 to 2).map { _ =>
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }.min

  /** Time of a fixed single-threaded piece of work that uses none of the
    * program: sorting a pseudo-random 256K-int array (branchy, cache-resident)
    * and 2M random updates of a 16 MB array (memory-bound). It tracks the
    * host's speed, which on a shared host changes by up to 1.6x within
    * minutes; the end-to-end times are scaled by it.
    */
  private def calibrationMs(): Double = {
    var x = 1L
    val big   = new Array[Int](1 << 22)
    val small = new Array[Int](1 << 18)
    val t0 = System.nanoTime
    var i = 0
    while (i < small.length) { x = x * 6364136223846793005L + 1442695040888963407L; small(i) = (x >>> 33).toInt; i += 1 }
    java.util.Arrays.sort(small)
    i = 0
    while (i < 2000000) {
      x = x * 6364136223846793005L + 1442695040888963407L
      big((x >>> 42).toInt) += small(i & 0xffff)
      i += 1
    }
    val ms = (System.nanoTime - t0) / 1e6
    if (big(0) == Int.MinValue) println(ms)  // keeps the work from being removed
    ms
  }

  private def opt(args: Array[String], name: String): Option[String] = {
    val i = args.indexOf(name)
    if (i >= 0 && i + 1 < args.length) Some(args(i + 1)) else None
  }

  def main(args: Array[String]): Unit = {
    def need(n: String) = opt(args, n).getOrElse { System.err.println(s"missing $n"); sys.exit(2) }
    val workload = Workloads.byName(need("--workload")).getOrElse {
      System.err.println(s"unknown workload; known: ${Workloads.all.map(_.name).mkString(", ")}"); sys.exit(2)
    }
    val seed    = need("--seed").toLong
    val seconds = need("--seconds").toDouble
    val trace   = need("--trace") == "1"
    val out     = new File(need("--out"))
    val corrupt = args.contains("--corrupt-answers")
    val p       = Workloads.parallelism

    val conf = new SparkConf().setMaster(s"local[$p]").setAppName("perfbench")
      .set("spark.ui.enabled", "false").set("spark.driver.host", "127.0.0.1")
      .set("spark.local.dir", new File(out, "spark-local").getAbsolutePath)
      // keep Spark's job history small so the retained heap does not grow
      // with the number of jobs a run completes
      .set("spark.ui.retainedJobs", "20").set("spark.ui.retainedStages", "40")
      .set("spark.ui.retainedTasks", "400")

    (1 to 5).foreach(_ => calibrationMs())  // JIT-compile it

    // set-up, repeated so its median is steady: Spark start + input
    // generation; the first rounds load classes and JIT-compile, untimed.
    // Each round starts from a collected heap so GC timing does not vary,
    // and is followed by a sample of the host's speed.
    var sc: SparkContext = null
    var inputs: Seq[Input] = Nil
    val (setupS, setupCalib) = (1 to SetupWarm + SetupReps).map { _ =>
      if (sc != null) sc.stop()
      inputs = Nil
      System.gc()
      val t0 = System.nanoTime
      sc = new SparkContext(conf)
      sc.setLogLevel("WARN")
      inputs = workload.inputs(seed)
      val s = (System.nanoTime - t0) / 1e9
      (s, calibrationMs())
    }.drop(SetupWarm).unzip
    try {
      val tracer   = new Tracer(trace)
      val listener = new JobListener
      if (trace) sc.addSparkListener(listener)
      val ref      = workload.reference(sc, inputs).map(Gate.key)
      val expected = mutable.Map.empty[String, Long]
      val errors   = ArrayBuffer.empty[String]
      val osMx     = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      var lastOutcome: Outcome = null

      def oneJob(traced: Boolean): JobRec = {
        val cpu0 = osMx.getProcessCpuTime
        val t0   = System.nanoTime
        try {
          val (outcome, layer, wallNs) =
            if (traced) {
              val firstId = tracer.nextSpanId
              val tj      = workload.runTraced(sc, inputs, tracer, listener)
              val spans   = tracer.all.filter(_.id >= firstId)
              val job     = spans.find(_.id == tj.root).get
              val self    = Tracer.selfMsByName(spans)
              val layered = Tracer.selfMsByName(spans, tj.root).collect {
                case (n, ms) if !Metrics.containers(n) => ms }.sum
              val m = Metrics.perLayer.map(_._1 -> 0.0).toMap ++
                Metrics.fromSpan.collect { case (sn, mn) if self.contains(sn) => mn -> self(sn) } ++
                tj.raw + (workload.residual -> (job.dur / 1e6 - layered))
              (tj.outcome, m, job.dur)
            } else {
              val o = workload.run(sc, inputs)
              (o, Map.empty[String, Double], System.nanoTime - t0)
            }
          val cpuNs = osMx.getProcessCpuTime - cpu0
          lastOutcome = outcome
          val err = Gate.check(if (corrupt) Gate.corrupt(outcome) else outcome, ref, expected)
            .orElse(if (wallNs > Workloads.CapMillis * 1000000L) Some("over the wall-clock cap") else None)
          JobRec(wallNs / 1e9, cpuNs / 1e9, traced, err, layer)
        } catch {
          case NonFatal(e) => JobRec((System.nanoTime - t0) / 1e9, 0, traced, Some(e.toString), Map.empty)
        }
      }

      // host speed, sampled between timed jobs at most once a second
      val calib = ArrayBuffer.empty[Double]
      var lastCalib = 0L

      // warm-up: JIT and Spark's first-use costs, not timed
      val warm0 = System.nanoTime
      val warm  = ArrayBuffer.empty[JobRec]
      val warmS = math.min(WarmSeconds, seconds)
      while (warm.length < MinWarmJobs || (System.nanoTime - warm0) / 1e9 < warmS)
        warm += oneJob(trace && warm.length % 2 == 0)
      val warmupS = (System.nanoTime - warm0) / 1e9
      warm.flatMap(_.error).distinct.foreach(e => errors += s"warm-up: $e")
      tracer.clear()

      // measurement: closed loop for `seconds`
      val jobs = ArrayBuffer.empty[JobRec]
      val end  = System.nanoTime + (seconds * 1e9).toLong
      while (jobs.isEmpty || System.nanoTime < end) {
        jobs += oneJob(trace && jobs.length % 2 == 0)
        if (calib.isEmpty || System.nanoTime - lastCalib > 1000000000L) { calib += calibrationMs(); lastCalib = System.nanoTime }
      }
      // what the process retains after the timed jobs, the last answer held
      val liveHeapMb = retainedHeapMb()
      val answerSets = if (lastOutcome == null) 0 else lastOutcome.maximal.map(_.length).sum

      val failed    = jobs.count(_.error.isDefined)
      val untraced  = jobs.filter(!_.traced)
      val traced    = jobs.filter(_.traced)
      // times as measured, and scaled to the reference host speed by the
      // calibration samples taken in the same phase of the run
      val wallS = median(untraced.map(_.wallS).toSeq)
      val cpuS  = median(untraced.map(_.cpuS).toSeq)
      val measuredS = Map("job_s" -> wallS, "cpu_s" -> cpuS, "setup_s" -> median(setupS))
      val jobScale   = CalibRefMs / median(calib.toSeq)
      val setupScale = CalibRefMs / median(setupCalib)
      val metrics: Seq[(String, String, Double)] =
        if (!trace) {
          val v = Map(
            "job_s"        -> wallS * jobScale,
            "cpu_s"        -> cpuS * jobScale,
            "live_heap_mb" -> liveHeapMb,
            "setup_s"      -> measuredS("setup_s") * setupScale,
            "ok_frac"      -> (jobs.length - failed).toDouble / jobs.length)
          Metrics.endToEnd.map { case (n, u) => (n, u, v(n)) }
        } else {
          val overhead =
            if (untraced.isEmpty) 0.0
            else median(traced.map(_.wallS).toSeq) / median(untraced.map(_.wallS).toSeq) - 1.0
          val extra = Map("trace.overhead_frac" -> overhead, "bench.warmup_s" -> warmupS,
                          "bench.calib_ms" -> median(calib.toSeq), "bench.job_wall_s" -> wallS)
          Metrics.perLayer.map { case (n, u) =>
            (n, u, extra.getOrElse(n, median(traced.flatMap(_.layer.get(n)).toSeq)))
          }
        }

      val metricsJson = metrics.map { case (n, u, v) => n -> Map("value" -> v, "unit" -> u) }.toMap
      val provenance = Map(
        "workload" -> workload.name, "seed" -> seed, "seconds" -> seconds, "trace" -> trace,
        "nproc" -> p, "spark_master" -> sc.master, "spark_version" -> sc.version,
        "java_version" -> System.getProperty("java.version"), "java_vm" -> System.getProperty("java.vm.name"),
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576,
        "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")).toSeq,
        "git_sha" -> opt(args, "--git-sha").getOrElse("unknown"),
        "source_digest" -> opt(args, "--source-digest").getOrElse("unknown"),
        "os" -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}")
      val tag    = s"${workload.name}-seed$seed-trace${if (trace) 1 else 0}"
      val record = new File(out, s"runs/$tag.json")
      record.getParentFile.mkdirs()
      val w = new PrintWriter(record, "UTF-8")
      try w.println(Json.render(Map(
        "provenance" -> provenance,
        "metrics"    -> metricsJson,
        "exact"      -> expected.toMap,
        "setup_s"    -> setupS,
        "measured_s" -> measuredS,
        "calib_ms"   -> calib.toSeq,
        "setup_calib_ms" -> setupCalib,
        "answer_sets" -> answerSets,
        "errors"     -> errors.toSeq,
        "jobs"       -> jobs.map(j => Map("wall_s" -> j.wallS, "cpu_s" -> j.cpuS,
                                          "traced" -> j.traced, "error" -> j.error.getOrElse(""))).toSeq)))
      finally w.close()
      if (trace) Tracer.write(tracer.all, new File(out, s"traces/${workload.name}-seed$seed.jsonl"))

      jobs.flatMap(_.error).distinct.foreach(e => System.err.println(s"[perfbench] job failed: $e"))
      errors.foreach(e => System.err.println(s"[perfbench] $e"))
      println(Json.render(Map(
        "correct"   -> (failed == 0 && errors.isEmpty),
        "attempted" -> jobs.length,
        "failed"    -> failed,
        "metrics"   -> metricsJson,
        "record"    -> record.getPath)))
    } finally sc.stop()
  }
}
