package repro.bench

import repro.gthinker._

/** Tables 12–14: mining time vs subgraph-materialization time as τ_time
  * shrinks. The paper's observation: smaller τ_time triggers more task
  * decompositions, so the cumulative materialization share rises, yet it
  * stays a small fraction of the mining work at sane settings.
  */
class Table12_14_MaterializationBench extends BenchSpec {

  private val sweeps = Seq(
    ("Patent", 12, Seq(5000.0, 1000.0, 100.0, 10.0, 1.0)),
    ("YouTube", 13, Seq(5000.0, 1000.0, 100.0, 10.0, 1.0)),
    ("Hyves", 14, Seq(1000.0, 100.0, 10.0, 1.0)))

  for ((prefix, tableNo, taus) <- sweeps) {
    test(s"Table $tableNo: mining vs subgraph materialization on $prefix-like") {
      val d = Datasets(prefix)
      table(s"Table $tableNo: ${d.name} — tau_time | Job (s) | Total mining (s) | Total materialization (s) | ratio | subtasks | spilled | round cost O")
      val ratios = taus.map { tt =>
        val r = Engine.run(sc, d.graph, d.gamma, d.tauSize, ATime(tt),
          EngineConfig(16, tauSplit = 50))
        val ratio = if (r.materializeMillis > 0) r.miningMillis / r.materializeMillis else Double.PositiveInfinity
        val ratioS = if (ratio.isInfinity) "inf" else f"$ratio%.1f"
        row(f"tau_time=${tt / 1000}%7.3fs  job=${sec(r.wallMillis)}%8s  mine=${sec(r.miningMillis)}%9s  mat=${sec(r.materializeMillis)}%8s  ratio=$ratioS%10s  subtasks=${r.subtasksSpawned}%7d  spilled=${r.subtasksSpilled}%7d  O=${r.roundCostMillis}%6.1fms")
        (ratio, r.subtasksSpawned)
      }
      // smaller tau_time => more decomposition => more materialization share
      assert(ratios.last._2 >= ratios.head._2, "subtask count should grow as tau_time shrinks")
      assert(ratios.last._1 <= ratios.head._1, "mining/materialization ratio should fall as tau_time shrinks")
    }
  }
}
