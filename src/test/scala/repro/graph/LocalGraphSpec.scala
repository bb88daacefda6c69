package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LocalGraphSpec extends AnyFunSuite {

  test("fromEdges deduplicates, symmetrizes, drops self loops") {
    val g = LocalGraph.fromPairs(4, Seq(0 -> 1, 1 -> 0, 0 -> 1, 2 -> 2, 1 -> 3))
    assert(g.numEdges == 2)
    assert(g.adj(0).toSeq == Seq(1))
    assert(g.adj(1).toSeq == Seq(0, 3))
    assert(g.adj(2).isEmpty)
    assert(g.hasEdge(3, 1) && !g.hasEdge(2, 2) && !g.hasEdge(0, 3))
  }

  test("adjacency lists are sorted ascending") {
    val rnd = new Random(1)
    val pairs = Seq.fill(200)((rnd.nextInt(30), rnd.nextInt(30))).filter(p => p._1 != p._2)
    val g = LocalGraph.fromPairs(30, pairs)
    (0 until 30).foreach(v => assert(g.adj(v).toSeq == g.adj(v).toSeq.sorted))
  }

  test("symmetry: u in adj(v) iff v in adj(u)") {
    val g = TestGraphs.erdosRenyi(25, 0.3, 42)
    for (v <- 0 until g.n; u <- g.adj(v)) assert(g.hasEdge(u, v) && g.hasEdge(v, u))
  }

  test("packedEdges round-trips through fromEdges") {
    val g = TestGraphs.erdosRenyi(20, 0.4, 7)
    val g2 = LocalGraph.fromEdges(20, g.packedEdges)
    (0 until 20).foreach(v => assert(g.adj(v).toSeq == g2.adj(v).toSeq))
  }

  test("degree / maxDegree / avgDegree / nonIsolated consistent") {
    val g = LocalGraph.fromPairs(5, Seq(0 -> 1, 0 -> 2, 0 -> 3))
    assert(g.degree(0) == 3 && g.degree(4) == 0)
    assert(g.maxDegree == 3)
    assert(math.abs(g.avgDegree - 6.0 / 5) < 1e-12)
    assert((0 until g.n).count(g.degree(_) > 0) == 4)
  }

  test("pack/unpack round trip on boundary values") {
    for ((u, v) <- Seq((0, 0), (1, Int.MaxValue), (Int.MaxValue, 3), (123456, 654321))) {
      val e = LocalGraph.pack(u, v)
      assert(LocalGraph.unpackU(e) == u && LocalGraph.unpackV(e) == v)
    }
  }

  test("edge out of range is rejected") {
    intercept[IllegalArgumentException] {
      LocalGraph.fromPairs(3, Seq(0 -> 5))
    }
  }

  test("empty graph basics") {
    val g = LocalGraph.empty(7)
    assert(g.numEdges == 0 && g.maxDegree == 0 && (0 until g.n).forall(g.degree(_) == 0))
  }
}
