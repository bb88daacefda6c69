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

  /** n, |E| and `java.util.Arrays.hashCode(packedEdges)` of every dataset:
    * the input of every table and every benchmark workload, so a generator
    * edit that changes a single edge fails here.
    */
  private val fingerprints = Map(
    "GSE1730-like"   -> (1000, 5509L, 1232045237),
    "GSE10158-like"  -> (1600, 6917L, 2040967471),
    "CaGrQc-like"    -> (5000, 20368L, 1753503358),
    "Enron-like"     -> (20000, 92345L, 471883733),
    "Amazon-like"    -> (50000, 137626L, 295051201),
    "Hyves-like"     -> (80000, 163696L, 2045420050),
    "YouTube-like"   -> (100000, 253683L, 1957292521),
    "Patent-like"    -> (150000, 461982L, -1645699626),
    "kmer-like"      -> (300000, 214462L, -191395959),
    "USARoad-like"   -> (200000, 399148L, -179791077)
  )

  test("every dataset matches its fingerprint: n, |E| and edge-list hash") {
    val actual = GraphGen.all().map { d =>
      val g = d.graph
      d.name -> (g.n, g.numEdges, java.util.Arrays.hashCode(g.packedEdges))
    }.toMap
    assert(actual == fingerprints)
  }

  /** Σ|E| and the hash of the edge-list hashes of a family of test graphs,
    * taken when `erdosRenyi` still lived in `GraphGen`: the specs' inputs
    * stay byte-identical after its move to `TestGraphs`.
    */
  private def familyFingerprint(gs: Seq[LocalGraph]): (Long, Int) =
    (gs.map(_.numEdges).sum, java.util.Arrays.hashCode(gs.map(g => java.util.Arrays.hashCode(g.packedEdges)).toArray))

  test("the specs' Erdős–Rényi inputs match their fingerprints") {
    val literals = Seq((6, 1.1, 0L), (7, 1.1, 0L), (7, 0.0, 0L), (12, 0.6, 5L), (14, 0.55, 11L), (15, 0.3, 21L),
      (18, 0.3, 8L), (20, 0.3, 1L), (20, 0.3, 4L), (20, 0.4, 3L), (20, 0.4, 7L), (24, 0.95, 2L), (25, 0.3, 42L),
      (28, 0.35, 9L), (30, 0.05, 1L), (30, 0.3, 5L), (36, 0.35, 9L), (38, 0.3, 1L), (40, 0.15, 9L), (40, 0.3, 7L),
      (40, 0.30, 11L), (40, 0.30, 12L), (40, 0.35, 9L), (50, 0.4, 3L), (60, 0.15, 77L), (150, 0.1, 1L),
      (150, 0.1, 2L), (200, 0.3, 4L))
    // MinerCorrectnessSpec's grid, and MinerInternalsSpec's sparse multi-word graphs
    val grid = for (n <- Seq(8, 10, 12); p <- Seq(0.3, 0.5, 0.7); seed <- Seq(1, 2)) yield (n, p, seed * 1000L + n)
    val sparse = for (n <- Seq(20, 63, 64, 65, 130); seed <- 1 to 6) yield (n, 3.0 / n, seed * 7L + (if (n == 20) 0 else n))
    def er(t: (Int, Double, Long)) = TestGraphs.erdosRenyi(t._1, t._2, t._3)
    assert(familyFingerprint(literals.map(er)) == ((11601L, 592386110)))
    assert(familyFingerprint(grid.map(er)) == ((421L, 1118938176)))
    assert(familyFingerprint(sparse.map(er)) == ((2957L, -1591531284)))
    // the planted graphs draw their backgrounds from erdosRenyi
    assert(familyFingerprint((1 to 20).map(s => NearThreshold.graph(s))) == ((1114L, 1028283012)))
    assert(familyFingerprint((1 to 12).map(s => NearThreshold.overlapping(s))) == ((500L, 1807491083)))
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
    val c = TestGraphs.erdosRenyi(7, 1.1, 0)
    assert(c.numEdges == 21)
    val e = TestGraphs.erdosRenyi(7, 0.0, 0)
    assert(e.numEdges == 0)
  }

  test("k-core statistics of the Table 3 datasets are reproducible") {
    val d = GraphGen.gse1730Like()
    val (c1, _) = GraphOps.kCoreSubgraph(d.graph, d.k)
    val (c2, _) = GraphOps.kCoreSubgraph(GraphGen.gse1730Like().graph, d.k)
    assert(c1.n == c2.n && c1.numEdges == c2.numEdges)
  }

  test("figure 1 graph matches the paper's stated facts") {
    val g = TestGraphs.figure1
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
