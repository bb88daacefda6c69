package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{LocalGraph, TestGraphs}

class QuasiCliqueSpec extends AnyFunSuite {

  test("ceilGamma matches exact rational arithmetic for paper-typical gammas") {
    // compare against BigDecimal-based exact ceiling for the gammas the
    // paper uses, over a range of sizes — this is where naive double
    // arithmetic goes wrong (e.g. ceil(0.9 * 10) must be 9, not 10)
    for (gammaStr <- Seq("0.5", "0.6", "0.75", "0.8", "0.85", "0.86", "0.87", "0.88", "0.89", "0.9", "0.91", "0.92", "0.95", "1.0");
         m <- 0 to 200) {
      val exact = BigDecimal(gammaStr).*(BigDecimal(m)).setScale(0, BigDecimal.RoundingMode.CEILING).toInt
      assert(QuasiClique.ceilGamma(gammaStr.toDouble, m) == exact, s"gamma=$gammaStr m=$m")
    }
  }

  test("floorDiv matches exact rational arithmetic") {
    for (gammaStr <- Seq("0.5", "0.8", "0.89", "0.9", "1.0"); x <- 0 to 100) {
      val exact = (BigDecimal(x) / BigDecimal(gammaStr)).setScale(0, BigDecimal.RoundingMode.FLOOR).toInt
      assert(QuasiClique.floorDiv(x.toDouble, gammaStr.toDouble) == exact, s"gamma=$gammaStr x=$x")
    }
  }

  // Lemma (i) of DESIGN.md: a member of S with d_S + d_ext <= ⌈γ|S|⌉ − 1
  // gives U_S^min = ⌊d/γ⌋ + 1 − |S| <= 0, so Bounds prunes the extensions.
  // In real arithmetic the −1e-9 of ceilGamma and the +1e-9 of floorDiv
  // cannot both tip the result (that needs γ > 1); their rounding is checked
  // here for every m a miner can ask about (its task graph has < 2^21
  // vertices) at γ = 0.50, 0.51, …, 1.00. floorDiv is monotone in d, so the
  // largest d, ⌈γm⌉ − 1, is the one to check.
  test("floorDiv(ceilGamma(γ, m) − 1, γ) <= m − 1 for every m < 2^21") {
    for (hundredths <- 50 to 100) {
      val gamma = hundredths / 100.0
      var m = 1
      while (m < (1 << 21)) {
        val c = QuasiClique.ceilGamma(gamma, m)
        if (c >= 1 && QuasiClique.floorDiv(c - 1, gamma) > m - 1) fail(s"gamma=$gamma m=$m")
        m += 1
      }
    }
  }

  test("isQuasiClique: degree threshold boundary") {
    // 5 vertices; gamma=0.5 needs ceil(0.5*4)=2 neighbors each
    val ok = LocalGraph.fromPairs(5, Seq(0 -> 1, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 0))
    assert(BruteForce.isQuasiClique(ok, Array(0, 1, 2, 3, 4), 0.5))
    assert(!BruteForce.isQuasiClique(ok, Array(0, 1, 2, 3, 4), 0.6)) // needs 3
  }

  test("isQuasiClique: disconnected set is rejected even if degrees pass") {
    // two disjoint triangles: every degree is 2 >= ceil(0.4*5)=2 but disconnected
    val g = LocalGraph.fromPairs(6, Seq(0 -> 1, 1 -> 2, 2 -> 0, 3 -> 4, 4 -> 5, 5 -> 3))
    assert(!BruteForce.isQuasiClique(g, Array(0, 1, 2, 3, 4, 5), 0.4))
    assert(BruteForce.isQuasiClique(g, Array(0, 1, 2), 1.0))
  }

  // Miner.qBitsValid tests degrees only and relies on this lemma for
  // connectivity.
  test("the degree test implies connectivity for gamma >= 0.5, and not below") {
    var passed = 0
    for (p <- Seq(0.3, 0.5, 0.7); seed <- 1 to 5) {
      val g = TestGraphs.erdosRenyi(12, p, seed)
      val nbrs = Array.tabulate(g.n)(v => g.adj(v).foldLeft(0)((bits, u) => bits | 1 << u))
      for (gamma <- Seq(0.5, 0.6, 0.75, 1.0); q <- 1 until 1 << g.n) {
        val vs = (0 until g.n).filter(v => (q >>> v & 1) == 1).toArray
        val need = QuasiClique.ceilGamma(gamma, vs.length - 1)
        if (vs.forall(v => Integer.bitCount(nbrs(v) & q) >= need)) {
          if (vs.length >= 3) passed += 1
          assert(BruteForce.connectedInduced(g, vs), s"p=$p seed=$seed gamma=$gamma Q=${vs.toSeq}")
        }
      }
    }
    assert(passed > 0, "no set of 3 or more vertices passed the degree test")
    // two disjoint triangles: every degree is 2 >= ceil(0.4*5)=2
    val g = LocalGraph.fromPairs(6, Seq(0 -> 1, 1 -> 2, 2 -> 0, 3 -> 4, 4 -> 5, 5 -> 3))
    val all = Array(0, 1, 2, 3, 4, 5)
    assert(all.forall(g.degree(_) >= QuasiClique.ceilGamma(0.4, all.length - 1)))
    assert(!BruteForce.connectedInduced(g, all))
  }

  // Rules A and B of the miner (DESIGN.md) rest on these two bounds, checked
  // on every vertex subset that is a γ-quasi-clique.
  test("every quasi-clique meets rule A's and rule B's bounds") {
    val gammas = Seq(0.5, 0.6, 0.67, 0.75, 0.8, 0.9, 1.0)
    val checkedPairs = Array.fill(gammas.length)(0)
    var tight = 0
    for (p <- Seq(0.5, 0.7, 0.85); seed <- 1 to 4) {
      val g = TestGraphs.erdosRenyi(12, p, seed)
      val nbrs = Array.tabulate(g.n)(v => g.adj(v).foldLeft(0)((bits, u) => bits | 1 << u))
      for ((gamma, gi) <- gammas.zipWithIndex; q <- 1 until 1 << g.n) {
        val vs = (0 until g.n).filter(v => (q >>> v & 1) == 1).toArray
        val m = vs.length
        if (BruteForce.isQuasiClique(g, vs, gamma)) {
          // rule B: each member has at most B(M) = M − 1 − ⌈γ(M − 1)⌉
          // non-neighbours in Q for every M >= m (B does not decrease)
          for (v <- vs; bigM <- m to g.n) {
            val nonNbrs = m - 1 - Integer.bitCount(nbrs(v) & q)
            assert(nonNbrs <= bigM - 1 - QuasiClique.ceilGamma(gamma, bigM - 1), s"gamma=$gamma Q=${vs.toSeq} v=$v M=$bigM")
          }
          // rule A: f(m) common neighbours in Q if non-adjacent, f(m) − 2 if adjacent
          val f = QuasiClique.pairBound(gamma, m)
          for (i <- vs.indices; j <- i + 1 until m) {
            val (u, w) = (vs(i), vs(j))
            val common = Integer.bitCount(nbrs(u) & nbrs(w) & q)
            val need = if (g.hasEdge(u, w)) f - 2 else f
            assert(common >= need, s"gamma=$gamma Q=${vs.toSeq} u=$u w=$w")
            if (common == need) tight += 1
            checkedPairs(gi) += 1
          }
        }
      }
    }
    assert(checkedPairs.forall(_ > 0), s"pairs checked per gamma: ${checkedPairs.toSeq}")
    assert(tight > 0, "no pair met rule A's bound with equality")
  }

  test("minPairBound is the least exact f(m), f not monotone") {
    def exactF(gammaStr: String, m: Int): Int =
      2 * (BigDecimal(gammaStr) * BigDecimal(m - 1)).setScale(0, BigDecimal.RoundingMode.CEILING).toInt - m + 2
    for (gammaStr <- Seq("0.5", "0.6", "0.67", "0.75", "0.8", "0.85", "0.9", "0.95", "1.0");
         tau <- Seq(0, 1, 2, 3, 5, 10, 22, 30); n <- Seq(1, 2, 5, 11, 23, 40, 94)) {
      val lo = math.max(tau, 2)
      val expect = if (lo > n) 1 else (lo to n).map(exactF(gammaStr, _)).min
      assert(QuasiClique.minPairBound(gammaStr.toDouble, tau, n) == expect, s"gamma=$gammaStr tau=$tau n=$n")
    }
    // ⌈0.9·m⌉ skips from m = 9 to 10 (both 9): f(10) = 10 but f(11) = 9, so
    // the least bound of a task with 10..11-vertex results is not f(τ)
    assert(QuasiClique.pairBound(0.9, 10) == 10 && QuasiClique.pairBound(0.9, 11) == 9)
    assert(QuasiClique.minPairBound(0.9, 10, 11) == 9)
  }

  test("single vertex is a quasi-clique; empty set is not") {
    val g = LocalGraph.empty(3)
    assert(BruteForce.isQuasiClique(g, Array(1), 0.9))
    assert(!BruteForce.isQuasiClique(g, Array.emptyIntArray, 0.9))
  }

  test("a clique is a gamma-quasi-clique for every gamma") {
    val g = TestGraphs.erdosRenyi(6, 1.1, 0)
    for (gamma <- Seq(0.5, 0.7, 0.9, 1.0))
      assert(BruteForce.isQuasiClique(g, Array(0, 1, 2, 3, 4, 5), gamma))
  }

  test("paper example: S1 and S2 of Figure 1 are 0.6-quasi-cliques") {
    val g = TestGraphs.figure1
    assert(BruteForce.isQuasiClique(g, Array(0, 1, 2, 3), 0.6))
    assert(BruteForce.isQuasiClique(g, Array(0, 1, 2, 3, 4), 0.6))
  }

  test("canon sorts without mutating the input") {
    val in = Array(3, 1, 2)
    val out = QuasiClique.canon(in)
    assert(out.toSeq == Seq(1, 2, 3))
    assert(in.toSeq == Seq(3, 1, 2))
  }
}
