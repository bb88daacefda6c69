package repro.core

import repro.SparkSpec
import repro.graph.{GraphGen, LocalGraph, NearThreshold}

/** Quick+ must agree exactly with the brute-force enumerator on small random
  * graphs, across γ, τ_size, densities and seeds. This is the definitional
  * correctness test for the whole mining core.
  */
class MinerCorrectnessSpec extends SparkSpec {

  private def canonSet(rs: Seq[Array[Int]]): Set[Vector[Int]] = rs.map(_.toVector).toSet

  /** Asserts Quick+ == brute force and returns the brute-force answer. */
  private def checkAgainstBruteForce(g: LocalGraph, gamma: Double, tauSize: Int, label: String): Set[Vector[Int]] = {
    val expected = canonSet(BruteForce.allMaximal(g, gamma, tauSize))
    val got      = canonSet(QuickPlus.mineSerial(g, gamma, tauSize).maximal)
    assert(got == expected,
      s"$label: mismatch\n  missing=${(expected -- got).take(5)}\n  extra=${(got -- expected).take(5)}")
    expected
  }

  for {
    n     <- Seq(8, 10, 12)
    p     <- Seq(0.3, 0.5, 0.7)
    gamma <- Seq(0.5, 0.6, 0.75, 0.9, 1.0)
    tau   <- Seq(3, 4)
    seed  <- Seq(1, 2)
  } test(s"Quick+ == brute force (n=$n p=$p gamma=$gamma tau=$tau seed=$seed)") {
    val g = GraphGen.erdosRenyi(n, p, seed * 1000 + n)
    checkAgainstBruteForce(g, gamma, tau, s"ER($n,$p,seed=$seed)")
  }

  test("Quick+ == brute force on denser graphs with larger tau") {
    for (seed <- 1 to 6) {
      val g = GraphGen.erdosRenyi(13, 0.8, seed)
      checkAgainstBruteForce(g, 0.85, 6, s"dense seed=$seed")
    }
  }

  /** Brute force at every γ and τ of the planted sweeps; some must answer. */
  private def checkPlanted(g: LocalGraph, label: String): Unit = {
    val answers = for (gamma <- Seq(0.6, 0.7, 0.75, 0.8, 0.9); tau <- Seq(4, 5, 6))
      yield checkAgainstBruteForce(g, gamma, tau, s"$label gamma=$gamma tau=$tau")
    assert(answers.exists(_.nonEmpty), s"$label has no quasi-clique at any gamma/tau")
  }

  // Planted near-threshold graphs: every seed of a fixed range, every γ and τ.
  for (seed <- 1 to 20)
    test(s"Quick+ == brute force on planted near-threshold graphs (seed=$seed)") {
      checkPlanted(NearThreshold.graph(seed), s"planted(seed=$seed)")
    }

  // Overlapping clique plants on a sparse background (`NearThreshold.overlapping`).
  for (seed <- 1 to 12)
    test(s"Quick+ == brute force on overlapping clique plants (seed=$seed)") {
      checkPlanted(NearThreshold.overlapping(seed), s"overlapping(seed=$seed)")
    }

  // Phase timers are read only when passed; timing must not steer the search.
  test("mineSerial emits the same candidates, in order, with and without phase timers") {
    val t15 = GraphGen.gse10158Like()
    val inputs = Seq((t15.graph, t15.gamma, t15.tauSize)) ++
      (1 to 4).map(seed => (NearThreshold.graph(seed), 0.7, 5))
    for ((g, gamma, tau) <- inputs) {
      val timers  = new PhaseTimers
      val timed   = QuickPlus.mineSerial(g, gamma, tau, timers = timers)
      val untimed = QuickPlus.mineSerial(g, gamma, tau)
      assert(timed.candidates.map(_.toVector) == untimed.candidates.map(_.toVector))
      assert(timed.maximal.map(_.toVector) == untimed.maximal.map(_.toVector))
      assert(timers.lookaheadNs + timers.coverNs + timers.criticalNs + timers.boundNs > 0,
        "passed phase timers must record work")
    }
  }

  test("Quick+ without recoding gives the same maximal sets") {
    for (seed <- 1 to 4) {
      val g = GraphGen.erdosRenyi(11, 0.6, seed)
      val a = canonSet(QuickPlus.mineSerial(g, 0.7, 4, recode = true).maximal)
      val b = canonSet(QuickPlus.mineSerial(g, 0.7, 4, recode = false).maximal)
      assert(a == b)
    }
  }

  test("Quick is sound (only valid quasi-cliques) but misses results that Quick+ finds") {
    var missedSomewhere = false
    for (seed <- 1 to 8) {
      val g     = GraphGen.erdosRenyi(12, 0.6, 77 + seed)
      val truth = canonSet(BruteForce.allMaximal(g, 0.75, 4))
      val plus  = canonSet(QuickPlus.mineSerial(g, 0.75, 4).maximal)
      val quickOut = Quick.mineSerial(g, 0.75, 4)
      // soundness: every Quick candidate is a valid quasi-clique
      quickOut.candidates.foreach(s => assert(QuasiClique.isQuasiClique(g, s, 0.75)))
      assert(plus == truth, s"seed=$seed Quick+ must be exact")
      // completeness gap: Quick may miss maximal results (paper, Table 15 notes)
      val quickMax = canonSet(quickOut.maximal)
      if ((truth -- quickMax).nonEmpty) missedSomewhere = true
      // Quick never invents a set that is not a valid quasi-clique of the
      // right size; sets it wrongly reports as maximal are exactly those
      // whose true superset it missed.
      (quickMax -- truth).foreach { s =>
        assert(truth.exists(t => s.toSet.subsetOf(t.toSet) && t.size > s.size),
          s"seed=$seed Quick reported $s which is neither maximal nor dominated")
      }
    }
    assert(missedSomewhere, "on this seed batch Quick is expected to miss at least one maximal result")
  }

  test("Figure 1 example: S2 = {a,b,c,d,e} is a maximal 0.6-quasi-clique; S1 is not maximal") {
    val g = GraphGen.figure1
    assert(QuasiClique.isQuasiClique(g, Array(0, 1, 2, 3), 0.6))    // S1 valid
    assert(QuasiClique.isQuasiClique(g, Array(0, 1, 2, 3, 4), 0.6)) // S2 valid
    val maximal = canonSet(QuickPlus.mineSerial(g, 0.6, 4).maximal)
    assert(maximal.contains(Vector(0, 1, 2, 3, 4)))
    assert(!maximal.contains(Vector(0, 1, 2, 3))) // S1 subsumed by S2
  }
}
