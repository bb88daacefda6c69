package repro

import org.apache.spark.sql.functions._
import repro.graph.{GraphGen, GraphOps}

/** Graph edge tables and their statistics, cross-checked with DuckDB. */
class SynthDataSpec extends SparkSpec {

  test("graphEdges matches LocalGraph edge count and orientation") {
    val g = GraphGen.erdosRenyi(30, 0.3, 5)
    val e = SynthData.graphEdges(spark, g)
    assert(e.count() == g.numEdges)
    assert(e.filter(col("src") >= col("dst")).count() == 0)
  }

  test("degreeTable is oracle-equivalent to DuckDB") {
    val g = GraphGen.erdosRenyi(25, 0.3, 6)
    val e = SynthData.graphEdges(spark, g).cache()
    val df = SynthData.degreeTable(spark, e)
    Oracle.assertEquivalent(df,
      "SELECT v, count(*) AS degree FROM " +
        "(SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges) GROUP BY v",
      "edges" -> e)
    e.unpersist()
  }

  test("degreeTable agrees with LocalGraph degrees") {
    val g = GraphGen.erdosRenyi(25, 0.3, 6)
    val rows = SynthData.degreeTable(spark, SynthData.graphEdges(spark, g)).collect()
    rows.foreach(r => assert(g.degree(r.getInt(0)) == r.getLong(1)))
    assert(rows.length == g.nonIsolated)
  }

  test("graphStats is oracle-equivalent to DuckDB and matches LocalGraph") {
    val g = GraphGen.erdosRenyi(25, 0.3, 7)
    val e = SynthData.graphEdges(spark, g).cache()
    val df = SynthData.graphStats(spark, e)
    Oracle.assertEquivalent(df,
      "SELECT count(*) AS n_vertices, sum(degree)/2 AS n_edges, " +
        "max(degree) AS max_degree, avg(degree) AS avg_degree FROM " +
        "(SELECT v, count(*) AS degree FROM " +
        " (SELECT src AS v FROM edges UNION ALL SELECT dst AS v FROM edges) GROUP BY v)",
      "edges" -> e)
    val r = df.head
    assert(r.getLong(0) == g.nonIsolated)
    assert(r.getDouble(1) == g.numEdges.toDouble)
    e.unpersist()
  }

  test("k-core statistics of the Table 3 datasets are reproducible") {
    val d = GraphGen.gse1730Like()
    val (c1, _) = GraphOps.kCoreSubgraph(d.graph, d.k)
    val (c2, _) = GraphOps.kCoreSubgraph(GraphGen.gse1730Like().graph, d.k)
    assert(c1.n == c2.n && c1.numEdges == c2.numEdges)
  }
}
