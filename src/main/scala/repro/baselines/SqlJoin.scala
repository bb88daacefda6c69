package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalGraph

/** Catalyst/DataFrame self-join implementations of TC and GM — the stand-in
  * for the Giraph / G-Miner columns of Table 4: the same answers computed by
  * a shuffle-bound relational dataflow instead of compute tasks. MCF has no
  * reasonable relational form ("-" in the table).
  */
object SqlJoin {

  /** `g`'s edges as a DataFrame (src, dst) with src < dst, one row per edge. */
  def graphEdges(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    val rows = g.packedEdges.map(e => (LocalGraph.unpackU(e), LocalGraph.unpackV(e)))
    spark.sparkContext
      .parallelize(rows.toIndexedSeq, math.max(1, spark.sparkContext.defaultParallelism))
      .toDF("src", "dst")
  }

  /** Triangle count: e1(a,b) ⋈ e2(b,c) ⋈ e3(a,c) with a<b<c. */
  def triangleCount(spark: SparkSession, g: LocalGraph): AppResult = {
    val t0 = System.nanoTime
    val e = graphEdges(spark, g).cache()
    e.count() // materialize the edge table first: the joins are the workload
    val e1 = e.toDF("a", "b")
    val e2 = e.toDF("b", "c")
    val e3 = e.toDF("a", "c")
    val n = e1.join(e2, "b").join(e3, Seq("a", "c")).count()
    e.unpersist()
    AppResult(n, (System.nanoTime - t0) / 1e6)
  }

  /** 4-clique count: six-edge join over a<b<c<d. */
  def fourCliqueCount(spark: SparkSession, g: LocalGraph): AppResult = {
    val t0 = System.nanoTime
    val e = graphEdges(spark, g).cache()
    e.count()
    val ab = e.toDF("a", "b")
    val ac = e.toDF("a", "c")
    val ad = e.toDF("a", "d")
    val bc = e.toDF("b", "c")
    val bd = e.toDF("b", "d")
    val cd = e.toDF("c", "d")
    val n = ab.join(bc, "b").join(ac, Seq("a", "c"))
      .join(cd, "c").join(bd, Seq("b", "d")).join(ad, Seq("a", "d"))
      .count()
    e.unpersist()
    AppResult(n, (System.nanoTime - t0) / 1e6)
  }

  /** Triangle-count DataFrame with a single count column, for the DuckDB
    * oracle (same SQL runs on both engines in tests).
    */
  def triangleCountDF(spark: SparkSession, g: LocalGraph): DataFrame = {
    val e = graphEdges(spark, g)
    e.createOrReplaceTempView("edges")
    spark.sql(
      """SELECT count(*) AS n_triangles
        |FROM edges e1 JOIN edges e2 ON e1.dst = e2.src
        |              JOIN edges e3 ON e1.src = e3.src AND e2.dst = e3.dst""".stripMargin)
  }
}
