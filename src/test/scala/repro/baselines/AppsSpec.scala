package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.SpecHelpers.hasShuffle
import repro.core.BruteForce
import repro.graph.TestGraphs
import repro.gthinker.Engine

/** The Table-4 workloads: every implementation (task engine old/new,
  * Arabesque-style embedding expansion, Catalyst joins) must agree with the
  * exact brute-force answer, and the SQL path is checked against DuckDB.
  */
class AppsSpec extends SparkSpec {

  private lazy val sc = spark.sparkContext

  for (seed <- Seq(1, 2, 3); p <- Seq(0.2, 0.5)) {
    test(s"TC: engine (old+new), EmbedExpand, SqlJoin all match brute force (seed=$seed p=$p)") {
      val g = TestGraphs.erdosRenyi(30, p, seed)
      val truth = BruteForce.triangles(g)
      assert(GThinkerApps.triangleCount(sc, g, 4, prioritizeBig = true).value == truth)
      assert(GThinkerApps.triangleCount(sc, g, 4, prioritizeBig = false).value == truth)
      assert(EmbedExpand.triangleCount(sc, g, 4).value == truth)
      assert(SqlJoin.triangleCount(spark, g).value == truth)
    }

    test(s"GM (4-cliques): all implementations match brute force (seed=$seed p=$p)") {
      val g = TestGraphs.erdosRenyi(25, p, seed + 10)
      val truth = BruteForce.fourCliques(g)
      assert(GThinkerApps.fourCliqueCount(sc, g, 4).value == truth)
      assert(GThinkerApps.fourCliqueCount(sc, g, 4, prioritizeBig = false).value == truth)
      assert(EmbedExpand.fourCliqueCount(sc, g, 4).value == truth)
      assert(SqlJoin.fourCliqueCount(spark, g).value == truth)
    }

    test(s"MCF: engine and EmbedExpand match brute force (seed=$seed p=$p)") {
      val g = TestGraphs.erdosRenyi(22, p, seed + 20)
      val truth = BruteForce.maxCliqueSize(g).toLong
      assert(GThinkerApps.maxClique(sc, g, 4).value == truth)
      assert(GThinkerApps.maxClique(sc, g, 4, prioritizeBig = false).value == truth)
      EmbedExpand.maxClique(sc, g, 4) match {
        case Right(r)  => assert(r.value == truth)
        case Left(err) => fail(s"unexpected overflow: $err")
      }
    }
  }

  test("Table 4 placements: G-thinker deals v to worker v mod p, G-thinker+ deals the highest degrees first") {
    val g = TestGraphs.erdosRenyi(23, 0.3, 4) // n = 23, a multiple of no p below
    def partitions(rdd: RDD[Int]): Seq[Seq[Int]] = rdd.glom().collect().toSeq.map(_.toSeq)
    def deal(p: Int, bigFrom: Int): Seq[Seq[Int]] = Engine.buckets(0 until g.n, p, bigFrom)(g.degree).toSeq.map(_.toSeq)
    for (p <- Seq(1, 3, 4)) {
      val owner = GThinkerApps.placedVertices(sc, g, p, prioritizeBig = false)
      assert(partitions(owner) == (0 until p).map(i => (i until g.n by p)), s"p=$p")
      assert(!hasShuffle(owner), s"p=$p")
      // the owner placement is the engine's deal with nothing big
      assert(partitions(owner) == deal(p, Int.MaxValue), s"p=$p")
      val big = GThinkerApps.placedVertices(sc, g, p, prioritizeBig = true)
      // p partitions, partition i holding bucket i of the deal with every vertex big
      assert(big.getNumPartitions == p, s"p=$p")
      val parts = partitions(big)
      assert(parts == deal(p, 0), s"p=$p")
      assert(parts.flatten.sorted == (0 until g.n), s"p=$p")
      assert(parts.map(s => g.degree(s.head)) == (0 until g.n).map(g.degree).sorted.reverse.take(p), s"p=$p")
      assert(!hasShuffle(big), s"p=$p")
    }
  }

  test("Table 4 apps reject fewer than one worker, in both columns") {
    val g = TestGraphs.erdosRenyi(12, 0.4, 6)
    val apps = Seq[(String, (Int, Boolean) => AppResult)](
      "TC" -> ((p, big) => GThinkerApps.triangleCount(sc, g, p, big)),
      "GM" -> ((p, big) => GThinkerApps.fourCliqueCount(sc, g, p, big)),
      "MCF" -> ((p, big) => GThinkerApps.maxClique(sc, g, p, big)))
    for ((name, app) <- apps; big <- Seq(false, true); p <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](app(p, big))
      assert(e.getMessage.contains("p (workers)"), s"$name big=$big p=$p: ${e.getMessage}")
    }
  }

  test("graphEdges matches LocalGraph edge count and orientation") {
    val g = TestGraphs.erdosRenyi(30, 0.3, 5)
    val e = SqlJoin.graphEdges(spark, g)
    assert(e.count() == g.numEdges)
    assert(e.filter(col("src") >= col("dst")).count() == 0)
  }

  test("SqlJoin triangle join is oracle-equivalent to DuckDB") {
    val g = TestGraphs.erdosRenyi(28, 0.35, 9)
    val edges = SqlJoin.graphEdges(spark, g)
    Oracle.assertEquivalent(SqlJoin.triangles(edges),
      """SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
        |              JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst""".stripMargin,
      "edges" -> edges)
  }

  test("EmbedExpand maxClique reports embedding explosion instead of running away") {
    val g = TestGraphs.erdosRenyi(24, 0.95, 2) // near-complete: ~2^24 clique embeddings
    EmbedExpand.maxClique(sc, g, 4, maxEmbeddings = 1000) match {
      case Left(msg) => assert(msg.contains("memory"))
      case Right(r)  => fail(s"expected overflow, got $r")
    }
  }

  test("triangle counting on a planted dataset slice is consistent across engines") {
    val g = TestGraphs.erdosRenyi(60, 0.15, 77)
    val a = GThinkerApps.triangleCount(sc, g, 8).value
    val b = EmbedExpand.triangleCount(sc, g, 8).value
    val c = SqlJoin.triangleCount(spark, g).value
    assert(a == b && b == c)
  }
}
