package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  test("generators are deterministic in their seed") {
    val a = GraphGen.youtubeLike().graph
    val b = GraphGen.youtubeLike().graph
    assert(a.numEdges == b.numEdges)
    assert(a.packedEdges.toSeq == b.packedEdges.toSeq)
    val c = GraphGen.youtubeLike(seed = 999).graph
    assert(c.packedEdges.toSeq != a.packedEdges.toSeq)
  }

  test("all ten datasets build with sane shapes") {
    val ds = GraphGen.all()
    assert(ds.size == 10)
    assert(ds.map(_.name).distinct.size == 10)
    for (d <- ds) {
      assert(d.graph.n > 0 && d.graph.numEdges > 0, d.name)
      assert(d.gamma >= 0.5 && d.gamma <= 1.0, d.name)
      assert(d.tauSize >= 5, d.name)
    }
  }

  test("k-core pruning shrinks every dataset dramatically (Table 3b effect)") {
    for (d <- GraphGen.all()) {
      val (core, _) = GraphOps.kCoreSubgraph(d.graph, d.k)
      assert(core.n < d.graph.n / 5, s"${d.name}: core ${core.n} of ${d.graph.n}")
    }
  }

  test("chungLu degree sequence is skewed (max degree >> average)") {
    val g = LocalGraph.fromEdges(10000, GraphGen.chungLu(10000, 6.0, 0.6, 1))
    assert(g.maxDegree > 10 * g.avgDegree)
  }

  test("denseBlock density close to p") {
    val members = (100 until 160).toArray
    val edges = GraphGen.denseBlock(members, 0.7, 9)
    val possible = members.length * (members.length - 1) / 2
    val density = edges.length.toDouble / possible
    assert(density > 0.6 && density < 0.8)
  }

  test("grid has max degree 4 and the expected edge count") {
    val g = LocalGraph.fromEdges(20 * 30, GraphGen.grid(20, 30))
    assert(g.maxDegree == 4)
    assert(g.numEdges == 19 * 30 + 20 * 29)
  }

  test("a grid's 3-core is empty (USA-Road analogue prunes to nothing)") {
    val g = LocalGraph.fromEdges(15 * 15, GraphGen.grid(15, 15))
    val (core, _) = GraphOps.kCoreSubgraph(g, 3)
    assert(core.n == 0)
  }

  test("paths yields average degree around 1") {
    val g = LocalGraph.fromEdges(5000, GraphGen.paths(5000, 6, 3))
    assert(g.avgDegree > 0.5 && g.avgDegree < 2.0)
  }

  test("erdosRenyi(p=1.1) is complete; p=0 is empty") {
    val c = GraphGen.erdosRenyi(7, 1.1, 0)
    assert(c.numEdges == 21)
    val e = GraphGen.erdosRenyi(7, 0.0, 0)
    assert(e.numEdges == 0)
  }

  test("k-core statistics of the Table 3 datasets are reproducible") {
    val d = GraphGen.gse1730Like()
    val (c1, _) = GraphOps.kCoreSubgraph(d.graph, d.k)
    val (c2, _) = GraphOps.kCoreSubgraph(GraphGen.gse1730Like().graph, d.k)
    assert(c1.n == c2.n && c1.numEdges == c2.numEdges)
  }

  test("figure 1 graph matches the paper's stated facts") {
    val g = GraphGen.figure1
    // N(v_d) = {a, c, e, h, i}, d(v_d) = 5
    assert(g.adj(3).toSet == Set(0, 2, 4, 7, 8))
    assert(g.degree(3) == 5)
    // N(v_e) = {a, b, c, d}
    assert(g.adj(4).toSet == Set(0, 1, 2, 3))
  }

  test("youtubeLike has a single dominant near-threshold block; patentLike several") {
    val yt = GraphGen.youtubeLike()
    val (coreYt, _) = GraphOps.kCoreSubgraph(yt.graph, yt.k)
    assert(coreYt.n >= 100) // the hard block survives k-core
    val pt = GraphGen.patentLike()
    val (corePt, _) = GraphOps.kCoreSubgraph(pt.graph, pt.k)
    assert(corePt.n >= 4 * 80) // the hard blocks survive
  }
}
