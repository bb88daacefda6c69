package repro.bench

import repro.core.{MinerConfig, Quick, QuickPlus}

/** Table 15: single-threaded Quick+ vs the original Quick on all datasets
  * (wall-capped at 120 s, mirroring the paper's "> 24 hr" rows). Shape:
  * Quick+ is consistently faster; Quick occasionally misses results. A
  * third column runs Quick+ with the paper's rules only (no rules A and
  * B), which must return Quick+'s maximal sets.
  */
class Table15_QuickBench extends BenchSpec {

  private val cap = 120000L

  test("Table 15: Quick+ vs Quick (single-threaded, 120 s cap)") {
    table("Table 15: serial runtime (s) — Quick+ | Quick | Quick+ (paper rules) | #maximal (Quick+ / Quick)")
    var plusWins = 0; var comparable = 0
    for (d <- Datasets.all) {
      val plus  = QuickPlus.mineSerial(d.graph, d.gamma, d.tauSize, capMillis = cap)
      val quick = Quick.mineSerial(d.graph, d.gamma, d.tauSize, capMillis = cap)
      val paper = QuickPlus.mineSerial(d.graph, d.gamma, d.tauSize, MinerConfig.quickPlusPaper, capMillis = cap)
      def cell(o: repro.core.MineOutcome) = if (o.timedOut) "> 120" else sec(o.mineMillis)
      def cnt(o: repro.core.MineOutcome)  = if (o.timedOut) "n/a" else o.numMaximal.toString
      row(f"${d.name}%-15s ${cell(plus)}%8s ${cell(quick)}%8s ${cell(paper)}%8s   ${cnt(plus)}%6s / ${cnt(quick)}%-6s")
      if (!plus.timedOut && !paper.timedOut)
        assert(plus.maximal.map(_.toVector) == paper.maximal.map(_.toVector),
          s"${d.name}: Quick+ with and without rules A and B returned other maximal sets")
      if (!plus.timedOut && !quick.timedOut) {
        comparable += 1
        if (plus.mineMillis < quick.mineMillis) plusWins += 1
        // every Quick "maximal" is either a true maximal (in Quick+'s set)
        // or strictly subsumed by one Quick+ found and Quick missed
        val plusMax = plus.maximal.map(_.toVector).toSet
        quick.maximal.foreach { s =>
          val v = s.toVector
          assert(plusMax.contains(v) ||
                 plusMax.exists(t => t.size > v.size && v.toSet.subsetOf(t.toSet)),
            s"${d.name}: Quick reported $v which Quick+ neither found nor subsumes")
        }
      }
      if (plus.timedOut) assert(quick.timedOut || quick.mineMillis > 0,
        s"${d.name}: Quick should not be dramatically faster than Quick+")
    }
    row(s"Quick+ faster on $plusWins of $comparable datasets where both finished")
    assert(plusWins * 2 >= comparable, "Quick+ should win on at least half the comparable datasets")
  }
}
