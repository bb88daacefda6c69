package repro.gthinker

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.{ListenerBusSync, ShuffleDependency}
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.baselines.GThinkerApps
import repro.core.{QuickPlus, BruteForce, TaskSpawn}
import repro.graph.{GraphGen, GraphOps, LocalGraph, NearThreshold}
import repro.predict.TaskFeatures

/** The engine must produce exactly the serial Quick+ maximal result set, for
  * every mode (A_base / A_split / A_time), engine variant (old/new), and
  * parallelism — decomposition and scheduling may never change the answer.
  */
class EngineSpec extends SparkSpec {

  private def canonSet(rs: Seq[Array[Int]]): Set[Vector[Int]] = rs.map(_.toVector).toSet

  private def serialTruth(g: repro.graph.LocalGraph, gamma: Double, tau: Int): Set[Vector[Int]] =
    canonSet(QuickPlus.mineSerial(g, gamma, tau).maximal)

  for {
    (mode, label, tauSplit) <- Seq[(Mode, String, Int)](
      (ABase, "A_base", 8), (ASplit, "A_split(8)", 8), (ASplit, "A_split(2)", 2),
      (ATime(0.0), "A_time(0ms)", 8), (ATime(50.0), "A_time(50ms)", 8))
    prioritize <- Seq(true, false)
    par        <- Seq(1, 4)
  } test(s"engine == serial Quick+ [$label, prioritize=$prioritize, p=$par]") {
    for (seed <- Seq(11, 12)) {
      val g = GraphGen.erdosRenyi(40, 0.30, seed)
      val truth = serialTruth(g, 0.7, 5)
      val res = Engine.run(spark.sparkContext, g, 0.7, 5, mode,
        EngineConfig(parallelism = par, prioritizeBigTasks = prioritize, tauSplit = tauSplit))
      assert(canonSet(res.maximal) == truth,
        s"seed=$seed missing=${(truth -- canonSet(res.maximal)).take(3)} extra=${(canonSet(res.maximal) -- truth).take(3)}")
    }
  }

  test("engine matches brute force on a tiny graph") {
    val g = GraphGen.erdosRenyi(12, 0.6, 5)
    val truth = canonSet(BruteForce.allMaximal(g, 0.75, 4))
    for (mode <- Seq[Mode](ABase, ASplit, ATime(0.0))) {
      val res = Engine.run(spark.sparkContext, g, 0.75, 4, mode, EngineConfig(parallelism = 2, tauSplit = 3))
      assert(canonSet(res.maximal) == truth, s"mode=$mode")
    }
    // planted near-threshold graphs; γ and τ cycle with the seed
    for (seed <- 1 to 6) {
      val (gamma, tau) = (Seq(0.6, 0.7, 0.75, 0.8, 0.9)(seed % 5), 4 + seed % 3)
      val pg = NearThreshold.graph(seed)
      val ptruth = canonSet(BruteForce.allMaximal(pg, gamma, tau))
      for (mode <- Seq[Mode](ABase, ASplit, ATime(0.0)); prioritize <- Seq(true, false); par <- 1 to 4) {
        val res = Engine.run(spark.sparkContext, pg, gamma, tau, mode,
          EngineConfig(parallelism = par, prioritizeBigTasks = prioritize, tauSplit = 2))
        assert(canonSet(res.maximal) == ptruth, s"planted(seed=$seed) gamma=$gamma tau=$tau mode=$mode prioritize=$prioritize p=$par")
      }
    }
  }

  test("engine matches brute force on overlapping clique plants") {
    // the plants of MinerCorrectnessSpec's serial sweep; γ and τ cycle with the seed
    val answers = for (seed <- 1 to 3) yield {
      val (gamma, tau) = (Seq(0.6, 0.7, 0.75, 0.8, 0.9)(seed % 5), 4 + seed % 3)
      val g = NearThreshold.overlapping(seed)
      val truth = canonSet(BruteForce.allMaximal(g, gamma, tau))
      for (mode <- Seq[Mode](ABase, ASplit, ATime(0.0)); prioritize <- Seq(true, false); par <- Seq(1, 4)) {
        val res = Engine.run(spark.sparkContext, g, gamma, tau, mode,
          EngineConfig(parallelism = par, prioritizeBigTasks = prioritize, tauSplit = 2))
        assert(canonSet(res.maximal) == truth, s"overlapping(seed=$seed) gamma=$gamma tau=$tau mode=$mode prioritize=$prioritize p=$par")
      }
      truth
    }
    assert(answers.exists(_.nonEmpty), "every answer is empty: the check would show nothing")
  }

  test("A_split and A_time actually decompose tasks (subtasks spawned)") {
    val g = GraphGen.erdosRenyi(50, 0.4, 3)
    val split = Engine.run(spark.sparkContext, g, 0.6, 5, ASplit, EngineConfig(2, tauSplit = 5))
    assert(split.subtasksSpawned > 0, "A_split with tiny tau_split must decompose")
    assert(split.rounds > 1)
    val time = Engine.run(spark.sparkContext, g, 0.6, 5, ATime(0.0), EngineConfig(2, tauSplit = 5))
    assert(time.subtasksSpawned > 0, "A_time with zero budget must decompose")
  }

  test("A_base never decomposes and finishes in one round") {
    val g = GraphGen.erdosRenyi(40, 0.3, 7)
    val res = Engine.run(spark.sparkContext, g, 0.7, 5, ABase, EngineConfig(4))
    assert(res.subtasksSpawned == 0)
    assert(res.rounds == 1)
  }

  test("metrics are sane: mining time positive, tasks processed >= spawned vertices surviving") {
    val g = GraphGen.erdosRenyi(40, 0.35, 9)
    val res = Engine.run(spark.sparkContext, g, 0.7, 5, ATime(1.0), EngineConfig(4))
    assert(res.tasksProcessed > 0)
    assert(res.miningMillis >= 0.0)
    assert(res.materializeMillis > 0.0)
    assert(res.maxTaskMillis <= res.miningMillis + 1e-6)
  }

  test("Tables 1-2 ego task times: one record per A_base task, with its features") {
    val (g, gamma, tau) = (GraphGen.erdosRenyi(40, 0.35, 9), 0.7, 5)
    val times = TaskFeatures.egoTaskTimes(g, gamma, tau)
    val mg = TaskSpawn.prelude(g, gamma, tau, recode = true)
    val tasks = (0 until mg.spawnUpper).flatMap(TaskSpawn.egoTask(mg.graph, _, mg.k))
    assert(tasks.nonEmpty)
    assert(times.size == tasks.size)
    assert(times.size == Engine.run(spark.sparkContext, g, gamma, tau, ABase, EngineConfig(4)).tasksProcessed)
    times.zip(tasks).foreach { case (t, (task, _)) =>
      assert(t.features == GraphOps.features(task)); assert(t.mineNanos >= 0)
    }
  }

  test("empty after k-core: engine returns no results quickly") {
    val g = GraphGen.erdosRenyi(30, 0.05, 1) // sparse: 5-core empty
    val res = Engine.run(spark.sparkContext, g, 0.9, 8, ABase, EngineConfig(2))
    assert(res.maximal.isEmpty)
  }

  test("tasks processed minus subtasks spawned under A_time(0) equals A_base's tasks processed") {
    val g = GraphGen.erdosRenyi(50, 0.4, 3)
    val base = Engine.run(spark.sparkContext, g, 0.6, 5, ABase, EngineConfig(2))
    val time = Engine.run(spark.sparkContext, g, 0.6, 5, ATime(0.0), EngineConfig(2))
    assert(time.subtasksSpawned > 0)
    assert(time.tasksProcessed - time.subtasksSpawned == base.tasksProcessed)
  }

  test("old engine mines every subtask locally: one round, nothing spilled, serial answer") {
    val g = GraphGen.erdosRenyi(40, 0.35, 9)
    val truth = serialTruth(g, 0.7, 5)
    for ((mode, tauSplit) <- Seq[(Mode, Int)]((ABase, 8), (ASplit, 2), (ATime(0.0), 8))) {
      val res = Engine.run(spark.sparkContext, g, 0.7, 5, mode,
        EngineConfig(2, prioritizeBigTasks = false, tauSplit = tauSplit))
      assert(res.rounds == 1, s"mode=$mode")
      assert(res.subtasksSpilled == 0, s"mode=$mode")
      if (mode != ABase) assert(res.subtasksSpawned > 0, s"mode=$mode")
      assert(canonSet(res.maximal) == truth, s"mode=$mode")
    }
  }

  test("redesigned engine keeps subtrees that finish within a round's cost local") {
    // ER(36, 0.35, 9): hundreds of subtasks, the longest task a few ms, far
    // below any measured O, even in a JVM's first, not yet compiled runs
    val g = GraphGen.erdosRenyi(36, 0.35, 9)
    val truth = serialTruth(g, 0.7, 5)
    val base = Engine.run(spark.sparkContext, g, 0.7, 5, ABase, EngineConfig(2))
    // tau_split above every |ext|: every subtask is small and stays local
    val local = Engine.run(spark.sparkContext, g, 0.7, 5, ATime(0.0), EngineConfig(2, tauSplit = g.n))
    assert(local.subtasksSpawned > 0)
    assert(local.subtasksSpilled == 0)
    assert(local.rounds == 1)
    // tau_split = 2: the subtasks are big, but each subtree finishes within O
    val quick = Engine.run(spark.sparkContext, g, 0.7, 5, ATime(0.0), EngineConfig(2, tauSplit = 2))
    assert(quick.roundCostMillis > 0.0)
    assert(quick.subtasksSpawned > 0)
    assert(quick.subtasksSpilled == 0)
    assert(quick.rounds == 1)
    for (r <- Seq(local, quick)) {
      assert(r.tasksProcessed - r.subtasksSpawned == base.tasksProcessed)
      assert(canonSet(r.maximal) == truth)
    }
  }

  test("redesigned engine spills only subtasks with |ext| >= tau_split") {
    val g = GraphGen.erdosRenyi(50, 0.4, 3)
    val truth = serialTruth(g, 0.6, 5)
    val base = Engine.run(spark.sparkContext, g, 0.6, 5, ABase, EngineConfig(2))
    // tau_split = 2: once a subtree has run for O, its big subtasks go back
    // to the driver for another round
    val spill = Engine.run(spark.sparkContext, g, 0.6, 5, ATime(0.0), EngineConfig(2, tauSplit = 2))
    assert(spill.subtasksSpilled > 0)
    assert(spill.rounds > 1)
    assert(spill.subtasksSpilled <= spill.subtasksSpawned)
    assert(spill.tasksProcessed - spill.subtasksSpawned == base.tasksProcessed)
    assert(canonSet(spill.maximal) == truth)
  }

  /** The value of `body` and the number of Spark jobs started while it ran. */
  private def withJobCount[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val started = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = started.incrementAndGet()
    }
    ListenerBusSync.waitUntilEmpty(sc) // earlier jobs' events are not counted
    sc.addSparkListener(listener)
    try {
      val a = body
      ListenerBusSync.waitUntilEmpty(sc)
      (a, started.get)
    } finally sc.removeSparkListener(listener)
  }

  test("Engine.run starts rounds + 1 Spark jobs, runFromTasks rounds, a G-thinker app 1") {
    val sc = spark.sparkContext
    val (base, baseJobs) = withJobCount(Engine.run(sc, GraphGen.erdosRenyi(40, 0.3, 7), 0.7, 5, ABase, EngineConfig(4)))
    assert(base.rounds == 1)
    assert(baseJobs == base.rounds + 1)
    // subtrees of ER(50, 0.4, 3) outlast O, so A_time(0) takes several rounds
    val (time, timeJobs) = withJobCount(
      Engine.run(sc, GraphGen.erdosRenyi(50, 0.4, 3), 0.6, 5, ATime(0.0), EngineConfig(2, tauSplit = 2)))
    assert(time.rounds > 1)
    assert(timeJobs == time.rounds + 1)
    // one task per vertex v, ext = the vertices above v; O = 0, so every big
    // subtask spills and there are several rounds
    val g = GraphGen.erdosRenyi(40, 0.35, 9)
    val tasks = Array.tabulate(g.n)(v => QCTask(v, Array(v), (v + 1 until g.n).toArray))
    val (kernel, kernelJobs) = withJobCount(
      Engine.runFromTasks(sc, g, Array.range(0, g.n), tasks, 0.7, 5, ATime(0.0), EngineConfig(2, tauSplit = 2)))
    assert(kernel.rounds > 1)
    assert(kernelJobs == kernel.rounds)
    assert(canonSet(kernel.maximal) == serialTruth(g, 0.7, 5))
    val (tc, tcJobs) = withJobCount(GThinkerApps.triangleCount(sc, g, 4))
    assert(tc.value > 0)
    assert(tcJobs == 1)
  }

  test("spill decision: big subtasks of subtrees that have run for the round cost") {
    val o = 15000000L // O = 15 ms
    assert(Engine.spills(extSize = 60, tauSplit = 50, subtreeNanos = o, roundCostNanos = o))
    assert(Engine.spills(60, 50, 3 * o, o))
    assert(Engine.spills(50, 50, o + 1, o))      // |ext| = tau_split is big
    assert(!Engine.spills(49, 50, 3 * o, o))     // small: stays local however long the subtree ran
    assert(!Engine.spills(60, 50, o - 1, o))     // subtree younger than O: stays local
    assert(!Engine.spills(60, 50, 0L, o))
    // O = 0 (no spawn job to measure): every big subtask spills at once
    assert(Engine.spills(60, 50, 0L, 0L))
    assert(!Engine.spills(49, 50, 0L, 0L))
  }

  test("round cost is the spawn job's wall time beyond its partitions' least possible work time") {
    val ms = 1000000L
    // 4 partitions on 4 cores: the longest partition bounds the work
    assert(Engine.roundCost(30 * ms, Seq(2 * ms, 8 * ms, 4 * ms, 2 * ms), cores = 4) == 22 * ms)
    // 4 equal partitions on 2 cores: they run in two waves
    assert(Engine.roundCost(30 * ms, Seq.fill(4)(5 * ms), cores = 2) == 20 * ms)
    // clamped at zero, and no partitions means all of the wall is overhead
    assert(Engine.roundCost(3 * ms, Seq(5 * ms), cores = 1) == 0L)
    assert(Engine.roundCost(7 * ms, Nil, cores = 4) == 7 * ms)
  }

  test("bad parameters are rejected up front") {
    val g = GraphGen.erdosRenyi(20, 0.3, 1)
    intercept[IllegalArgumentException](EngineConfig(parallelism = 0))
    intercept[IllegalArgumentException](EngineConfig(parallelism = 2, tauSplit = -1))
    intercept[IllegalArgumentException](ATime(-1.0))
    intercept[IllegalArgumentException](ATime(Double.NaN))
    intercept[IllegalArgumentException](Engine.run(spark.sparkContext, g, 0.7, 0, ABase, EngineConfig(2)))
    intercept[IllegalArgumentException](QuickPlus.mineSerial(g, 0.7, 0))
  }

  test("gamma outside [0.5, 1] is rejected even when no miner is ever built") {
    // the k-core of an edgeless graph is empty, so no task reaches a Miner
    val g = LocalGraph.empty(5)
    for (gamma <- Seq(0.3, 1.5)) {
      intercept[IllegalArgumentException](Engine.run(spark.sparkContext, g, gamma, 3, ABase, EngineConfig(2)))
      intercept[IllegalArgumentException](QuickPlus.mineSerial(g, gamma, 3))
    }
  }

  test("placement puts bucket i in partition i without a shuffle") {
    // roots 0..4, |ext| 0..8: some tasks are big (|ext| >= 5), some small
    val tasks = (0 until 23).map(i => QCTask(i * 7 % 5, Array(i), Array.fill(i % 9)(0)))
    def hasShuffle(r: RDD[_]): Boolean =
      r.dependencies.exists(d => d.isInstanceOf[ShuffleDependency[_, _, _]] || hasShuffle(d.rdd))
    val cores = spark.sparkContext.defaultParallelism
    for (p <- Seq(4, 1); prioritize <- Seq(true, false)) {
      val rdd = Engine.place(spark.sparkContext, tasks, p, prioritize, bigFrom = 5)(_.ext.length, _.root)
      // the redesigned engine deals 2p slices for idle cores to pull, unless
      // more than p cores would then run them at once; the old engine deals p
      val slices = if (prioritize && cores <= p) 2 * p else p
      val buckets = Engine.buckets(tasks, slices, prioritize, bigFrom = 5)(_.ext.length, _.root)
      val got = rdd.mapPartitionsWithIndex((i, it) => it.map(t => (i, t.s(0)))).collect()
      assert(rdd.getNumPartitions == slices, s"p=$p prioritize=$prioritize")
      for (i <- 0 until slices)
        assert(got.filter(_._1 == i).map(_._2).toSeq == buckets(i).map(_.s(0)).toSeq, s"p=$p prioritize=$prioritize bucket $i")
      assert(!hasShuffle(rdd), s"p=$p prioritize=$prioritize")
      if (prioritize) {
        assert(buckets(0).head.ext.length == tasks.map(_.ext.length).max)
        // slices 0 … p−1, launched first, start with the p largest tasks, largest first
        assert((0 until p).map(buckets(_).head.ext.length) == tasks.map(_.ext.length).sorted.reverse.take(p))
      } else buckets.zipWithIndex.foreach { case (b, i) => assert(b.forall(_.root % p == i)) }
    }
  }
}
