package repro.bench

import repro.core.{MinerConfig, PhaseTimers, QuickPlus}

/** Table 16: time spent in each pruning phase of Quick+ — lookahead,
  * cover-vertex, critical-vertex, and lower/upper-bound computation —
  * on the six small/mid datasets of the paper's table. Quick+ runs with
  * the paper's rules only, as the table measures them.
  */
class Table16_PruningCostBench extends BenchSpec {

  private val sets = Seq("GSE1730", "GSE10158", "CaGrQc", "Enron", "Amazon", "Hyves")

  test("Table 16: cost of different pruning phases (ms)") {
    table("Table 16: pruning-phase cost (ms) — Lookahead | Cover | Critical | LB & UB")
    for (prefix <- sets) {
      val d = Datasets(prefix)
      val timers = new PhaseTimers
      val out = QuickPlus.mineSerial(d.graph, d.gamma, d.tauSize, MinerConfig.quickPlusPaper, timers)
      row(f"${d.name}%-15s ${timers.lookaheadNs / 1e6}%10.2f ${timers.coverNs / 1e6}%10.2f ${timers.criticalNs / 1e6}%10.2f ${timers.boundNs / 1e6}%10.2f   (total mine ${sec(out.mineMillis)}s)")
      val total = timers.lookaheadNs + timers.coverNs + timers.criticalNs + timers.boundNs
      assert(total > 0, s"${d.name}: phase timers must record work")
      assert(total <= (out.mineMillis * 1e6 * 1.05).toLong + 1000000L,
        s"${d.name}: phase time cannot exceed total mining time")
    }
  }
}
