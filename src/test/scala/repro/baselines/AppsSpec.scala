package repro.baselines

import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.core.BruteForce
import repro.graph.GraphGen

/** The Table-4 workloads: every implementation (task engine old/new,
  * Arabesque-style embedding expansion, Catalyst joins) must agree with the
  * exact brute-force answer, and the SQL path is checked against DuckDB.
  */
class AppsSpec extends SparkSpec {

  private lazy val sc = spark.sparkContext

  for (seed <- Seq(1, 2, 3); p <- Seq(0.2, 0.5)) {
    test(s"TC: engine (old+new), EmbedExpand, SqlJoin all match brute force (seed=$seed p=$p)") {
      val g = GraphGen.erdosRenyi(30, p, seed)
      val truth = BruteForce.triangles(g)
      assert(GThinkerApps.triangleCount(sc, g, 4, prioritizeBig = true).value == truth)
      assert(GThinkerApps.triangleCount(sc, g, 4, prioritizeBig = false).value == truth)
      assert(EmbedExpand.triangleCount(sc, g, 4).value == truth)
      assert(SqlJoin.triangleCount(spark, g).value == truth)
    }

    test(s"GM (4-cliques): all implementations match brute force (seed=$seed p=$p)") {
      val g = GraphGen.erdosRenyi(25, p, seed + 10)
      val truth = BruteForce.fourCliques(g)
      assert(GThinkerApps.fourCliqueCount(sc, g, 4).value == truth)
      assert(GThinkerApps.fourCliqueCount(sc, g, 4, prioritizeBig = false).value == truth)
      assert(EmbedExpand.fourCliqueCount(sc, g, 4).value == truth)
      assert(SqlJoin.fourCliqueCount(spark, g).value == truth)
    }

    test(s"MCF: engine and EmbedExpand match brute force (seed=$seed p=$p)") {
      val g = GraphGen.erdosRenyi(22, p, seed + 20)
      val truth = BruteForce.maxCliqueSize(g).toLong
      assert(GThinkerApps.maxClique(sc, g, 4).value == truth)
      assert(GThinkerApps.maxClique(sc, g, 4, prioritizeBig = false).value == truth)
      EmbedExpand.maxClique(sc, g, 4) match {
        case Right(r)  => assert(r.value == truth)
        case Left(err) => fail(s"unexpected overflow: $err")
      }
    }
  }

  test("graphEdges matches LocalGraph edge count and orientation") {
    val g = GraphGen.erdosRenyi(30, 0.3, 5)
    val e = SqlJoin.graphEdges(spark, g)
    assert(e.count() == g.numEdges)
    assert(e.filter(col("src") >= col("dst")).count() == 0)
  }

  test("SqlJoin triangle count DataFrame is oracle-equivalent to DuckDB") {
    val g = GraphGen.erdosRenyi(28, 0.35, 9)
    val df = SqlJoin.triangleCountDF(spark, g)
    Oracle.assertEquivalent(df,
      """SELECT count(*) AS n_triangles
        |FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
        |              JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst""".stripMargin,
      "edges" -> SqlJoin.graphEdges(spark, g))
  }

  test("EmbedExpand maxClique reports embedding explosion instead of running away") {
    val g = GraphGen.erdosRenyi(24, 0.95, 2) // near-complete: ~2^24 clique embeddings
    EmbedExpand.maxClique(sc, g, 4, maxEmbeddings = 1000) match {
      case Left(msg) => assert(msg.contains("memory"))
      case Right(r)  => fail(s"expected overflow, got $r")
    }
  }

  test("triangle counting on a planted dataset slice is consistent across engines") {
    val g = GraphGen.erdosRenyi(60, 0.15, 77)
    val a = GThinkerApps.triangleCount(sc, g, 8).value
    val b = EmbedExpand.triangleCount(sc, g, 8).value
    val c = SqlJoin.triangleCount(spark, g).value
    assert(a == b && b == c)
  }
}
