package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, GraphOps, LocalGraph}

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

  test("isQuasiClique: degree threshold boundary") {
    // 5 vertices; gamma=0.5 needs ceil(0.5*4)=2 neighbors each
    val ok = LocalGraph.fromPairs(5, Seq(0 -> 1, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 0))
    assert(QuasiClique.isQuasiClique(ok, Array(0, 1, 2, 3, 4), 0.5))
    assert(!QuasiClique.isQuasiClique(ok, Array(0, 1, 2, 3, 4), 0.6)) // needs 3
  }

  test("isQuasiClique: disconnected set is rejected even if degrees pass") {
    // two disjoint triangles: every degree is 2 >= ceil(0.4*5)=2 but disconnected
    val g = LocalGraph.fromPairs(6, Seq(0 -> 1, 1 -> 2, 2 -> 0, 3 -> 4, 4 -> 5, 5 -> 3))
    assert(!QuasiClique.isQuasiClique(g, Array(0, 1, 2, 3, 4, 5), 0.4))
    assert(QuasiClique.isQuasiClique(g, Array(0, 1, 2), 1.0))
  }

  // Miner.qBitsValid tests degrees only and relies on this lemma for
  // connectivity.
  test("the degree test implies connectivity for gamma >= 0.5, and not below") {
    var passed = 0
    for (p <- Seq(0.3, 0.5, 0.7); seed <- 1 to 5) {
      val g = GraphGen.erdosRenyi(12, p, seed)
      val nbrs = Array.tabulate(g.n)(v => g.adj(v).foldLeft(0)((bits, u) => bits | 1 << u))
      for (gamma <- Seq(0.5, 0.6, 0.75, 1.0); q <- 1 until 1 << g.n) {
        val vs = (0 until g.n).filter(v => (q >>> v & 1) == 1).toArray
        val need = QuasiClique.ceilGamma(gamma, vs.length - 1)
        if (vs.forall(v => Integer.bitCount(nbrs(v) & q) >= need)) {
          if (vs.length >= 3) passed += 1
          assert(GraphOps.connectedInduced(g, vs), s"p=$p seed=$seed gamma=$gamma Q=${vs.toSeq}")
        }
      }
    }
    assert(passed > 0, "no set of 3 or more vertices passed the degree test")
    // two disjoint triangles: every degree is 2 >= ceil(0.4*5)=2
    val g = LocalGraph.fromPairs(6, Seq(0 -> 1, 1 -> 2, 2 -> 0, 3 -> 4, 4 -> 5, 5 -> 3))
    val all = Array(0, 1, 2, 3, 4, 5)
    assert(all.forall(g.degree(_) >= QuasiClique.ceilGamma(0.4, all.length - 1)))
    assert(!GraphOps.connectedInduced(g, all))
  }

  test("single vertex is a quasi-clique; empty set is not") {
    val g = LocalGraph.empty(3)
    assert(QuasiClique.isQuasiClique(g, Array(1), 0.9))
    assert(!QuasiClique.isQuasiClique(g, Array.emptyIntArray, 0.9))
  }

  test("a clique is a gamma-quasi-clique for every gamma") {
    val g = GraphGen.erdosRenyi(6, 1.1, 0)
    for (gamma <- Seq(0.5, 0.7, 0.9, 1.0))
      assert(QuasiClique.isQuasiClique(g, Array(0, 1, 2, 3, 4, 5), gamma))
  }

  test("paper example: S1 and S2 of Figure 1 are 0.6-quasi-cliques") {
    val g = GraphGen.figure1
    assert(QuasiClique.isQuasiClique(g, Array(0, 1, 2, 3), 0.6))
    assert(QuasiClique.isQuasiClique(g, Array(0, 1, 2, 3, 4), 0.6))
  }

  test("canon sorts without mutating the input") {
    val in = Array(3, 1, 2)
    val out = QuasiClique.canon(in)
    assert(out.toSeq == Seq(1, 2, 3))
    assert(in.toSeq == Seq(3, 1, 2))
  }
}
