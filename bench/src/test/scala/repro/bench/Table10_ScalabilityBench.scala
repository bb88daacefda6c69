package repro.bench

import repro.gthinker._

/** Table 10: scalability of A_time. The paper scales 16 machines x 32
  * threads; we have one 16-core node, so one engine worker = one core and
  * the vertical/horizontal sweeps collapse into a worker-count sweep
  * p in {1,2,4,8,16} (documented in EXPERIMENTS.md). Shape to reproduce:
  * near-linear scaling on Patent, flattening on the small graphs.
  */
class Table10_ScalabilityBench extends BenchSpec {

  private val workers = Seq(1, 2, 4, 8, 16)

  for (prefix <- Seq("Patent", "Hyves", "Enron")) {
    test(s"Table 10: scalability of A_time on $prefix-like") {
      val d = Datasets(prefix)
      table(s"Table 10: A_time scalability on ${d.name} — workers | Time (s) | RAM (GB)")
      val times = workers.map { p =>
        val r = Engine.run(sc, d.graph, d.gamma, d.tauSize, ATime(100.0),
          EngineConfig(parallelism = p, tauSplit = 50))
        row(f"workers=$p%2d  time=${sec(r.wallMillis)}%8s  RAM=${gb(r.peakHeapMB)}%6s  rounds=${r.rounds}%3d  tasks=${r.tasksProcessed}%6d  " +
          f"spilled=${r.subtasksSpilled}%6d  O=${r.roundCostMillis}%6.1fms")
        r.wallMillis
      }
      if (prefix == "Patent") {
        assert(times.last < times.head / 2.5,
          s"Patent-like should scale: 1 worker ${times.head} ms vs 16 workers ${times.last} ms")
      }
      // more workers never catastrophically hurts (allow noise factor 2 on tiny sets)
      assert(times.last < times.head * 2.0)
    }
  }
}
