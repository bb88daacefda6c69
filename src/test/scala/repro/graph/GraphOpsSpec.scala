package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.BruteForce
import scala.util.Random

class GraphOpsSpec extends AnyFunSuite {

  /** Reference k-core: repeatedly drop vertices with degree < k. */
  private def naiveKCore(g: LocalGraph, k: Int): Set[Int] = {
    var alive = (0 until g.n).toSet
    var changed = true
    while (changed) {
      val next = alive.filter(v => g.adj(v).count(alive.contains) >= k)
      changed = next != alive
      alive = next
    }
    alive
  }

  for (seed <- 1 to 5; k <- Seq(1, 2, 3, 5)) test(s"kCoreMask matches naive peeling (seed=$seed k=$k)") {
    val g = TestGraphs.erdosRenyi(30, 0.2, seed)
    val mask = GraphOps.kCoreMask(g, k)
    assert((0 until g.n).filter(mask).toSet == naiveKCore(g, k))
  }

  // Sparse power-law graphs, as the analogues' backgrounds: most vertices
  // start below k and never read their arcs, and the peel still removes
  // some that start at or above k.
  for (seed <- 1 to 3) test(s"kCoreMask matches naive peeling on sparse Chung-Lu graphs (seed=$seed)") {
    val n = 2000
    val g = LocalGraph.fromEdges(n, GraphGen.chungLu(n, 6.0, 0.6, seed))
    var peeled, survived = 0
    for (k <- 6 to 10) {
      assert((0 until n).count(g.degree(_) < k) * 2 > n, s"k=$k: most vertices must start below k")
      val core = naiveKCore(g, k)
      assert((0 until n).filter(GraphOps.kCoreMask(g, k)).toSet == core, s"k=$k")
      peeled += (0 until n).count(v => g.degree(v) >= k && !core(v))
      survived += core.size
    }
    assert(peeled > 0 && survived > 0, s"peeled $peeled and kept $survived vertices at or above k")
  }

  test("kCoreMask matches naive peeling on a dense Erdős–Rényi graph") {
    val g = TestGraphs.erdosRenyi(200, 0.3, 4)
    for (k <- Seq(40, 50, 55, 60, 65, 70))
      assert((0 until g.n).filter(GraphOps.kCoreMask(g, k)).toSet == naiveKCore(g, k), s"k=$k")
  }

  test("kCoreMask: k = 0 keeps every vertex, k above the max degree none, the empty graph is empty") {
    val g = LocalGraph.fromPairs(7, Seq(0 -> 1, 1 -> 2, 2 -> 0, 3 -> 4)) // 5 and 6 isolated
    assert(GraphOps.kCoreMask(g, 0).forall(identity))
    assert(!GraphOps.kCoreMask(g, g.maxDegree + 1).contains(true))
    assert((0 until g.n).filter(GraphOps.kCoreMask(g, 2)) == Seq(0, 1, 2))
    val empty = new LocalGraph(Array.empty[Array[Int]])
    assert(GraphOps.kCoreMask(empty, 0).isEmpty && GraphOps.kCoreMask(empty, 3).isEmpty)
  }

  test("kCoreSubgraph induces exactly the surviving vertices") {
    val g = TestGraphs.erdosRenyi(40, 0.15, 9)
    val (core, ids) = GraphOps.kCoreSubgraph(g, 3)
    assert(ids.toSet == naiveKCore(g, 3))
    for (v <- 0 until core.n) assert(core.adj(v).forall(u => g.hasEdge(ids(v), ids(u))))
    // every vertex in the k-core has induced degree >= k
    (0 until core.n).foreach(v => assert(core.degree(v) >= 3))
  }

  for (seed <- 1 to 5) test(s"degeneracy is the largest k with a non-empty naive k-core (seed=$seed)") {
    val g = TestGraphs.erdosRenyi(35, 0.25, seed)
    val d = GraphOps.degeneracy(g)
    assert(naiveKCore(g, d).nonEmpty)
    assert(naiveKCore(g, d + 1).isEmpty)
  }

  test("degeneracy of a clique is n-1, of a tree is 1, of a cycle is 2") {
    val clique = TestGraphs.erdosRenyi(6, 1.1, 0) // p>1 => complete
    assert(GraphOps.degeneracy(clique) == 5)
    val path = LocalGraph.fromPairs(5, Seq(0 -> 1, 1 -> 2, 2 -> 3, 3 -> 4))
    assert(GraphOps.degeneracy(path) == 1)
    val cycle = LocalGraph.fromPairs(5, Seq(0 -> 1, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 0))
    assert(GraphOps.degeneracy(cycle) == 2)
  }

  test("induced recodes correctly and preserves edges") {
    val g = TestGraphs.erdosRenyi(20, 0.4, 3)
    val vs = Array(2, 5, 7, 11, 13)
    val (sub, ids) = GraphOps.induced(g, vs)
    assert(ids.toSeq == vs.toSeq)
    for (a <- 0 until sub.n; b <- 0 until sub.n if a != b)
      assert(sub.hasEdge(a, b) == g.hasEdge(vs(a), vs(b)))
  }

  /** Reference 2-hop set via BFS. */
  private def naiveTwoHop(g: LocalGraph, v: Int, minDeg: Int): Set[Int] = {
    val oneHop = g.adj(v).toSet
    val twoHop = oneHop.flatMap(u => g.adj(u).toSet)
    (oneHop ++ twoHop - v).filter(u => u > v && g.degree(u) >= minDeg)
  }

  for (seed <- 1 to 4) test(s"twoHopAbove matches BFS definition (seed=$seed)") {
    val g = TestGraphs.erdosRenyi(25, 0.15, seed * 5)
    for (v <- 0 until g.n by 3; minDeg <- Seq(0, 2))
      assert(GraphOps.twoHopAbove(g, v, v, minDeg).toSet == naiveTwoHop(g, v, minDeg), s"v=$v minDeg=$minDeg")
  }

  test("connectedInduced: positive and negative cases") {
    val g = LocalGraph.fromPairs(6, Seq(0 -> 1, 1 -> 2, 3 -> 4))
    assert(BruteForce.connectedInduced(g, Array(0, 1, 2)))
    assert(!BruteForce.connectedInduced(g, Array(0, 1, 3)))
    assert(BruteForce.connectedInduced(g, Array(3, 4)))
    assert(BruteForce.connectedInduced(g, Array(5)))
    assert(!BruteForce.connectedInduced(g, Array(0, 2))) // 0-2 not adjacent within {0,2}
  }

  test("recodeByCover: vmax becomes 0, its neighbors take the largest ids, graph is isomorphic") {
    val g = TestGraphs.erdosRenyi(15, 0.3, 21)
    val (r, ids) = GraphOps.recodeByCover(g)
    val vmax = (0 until g.n).maxBy(g.degree)
    assert(g.degree(ids(0)) == g.degree(vmax))
    val degVmax = r.degree(0)
    // neighbors of vertex 0 occupy the tail id block
    val tail = (r.n - degVmax until r.n).toSet
    assert(r.adj(0).toSet == tail)
    // isomorphism via ids
    for (a <- 0 until r.n; b <- 0 until r.n if a != b)
      assert(r.hasEdge(a, b) == g.hasEdge(ids(a), ids(b)))
    // edge/vertex counts preserved
    assert(r.n == g.n && r.numEdges == g.numEdges)
  }

  test("features: computed values agree with direct computation") {
    val g = TestGraphs.erdosRenyi(18, 0.3, 8)
    val f = GraphOps.features(g)
    assert(f.nV == g.n && f.nE == g.numEdges && f.maxDeg == g.maxDegree)
    assert(math.abs(f.avgDeg - g.avgDegree) < 1e-12)
    assert(f.coreNum == GraphOps.degeneracy(g))
  }
}
