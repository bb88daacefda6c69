package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Graph data as DataFrames: the ten synthetic analogues of Table 3 live
  * in repro.graph.GraphGen; here they are exposed as edge tables so stats
  * queries run through the DataFrame API and can be checked against the
  * DuckDB oracle.
  */
object SynthData {

  /** Oriented edge table (src < dst) for one of the named datasets of
    * repro.graph.GraphGen (e.g. "YouTube-like"), or any LocalGraph.
    */
  def graphEdges(spark: SparkSession, g: repro.graph.LocalGraph): DataFrame = {
    import spark.implicits._
    val rows = g.packedEdges.map { e =>
      (repro.graph.LocalGraph.unpackU(e), repro.graph.LocalGraph.unpackV(e))
    }
    spark.sparkContext
      .parallelize(rows.toIndexedSeq, math.max(1, spark.sparkContext.defaultParallelism))
      .toDF("src", "dst")
  }

  /** Per-vertex degree table computed relationally (both edge directions
    * unioned, grouped) — oracle-checkable against DuckDB.
    */
  def degreeTable(spark: SparkSession, edges: DataFrame): DataFrame = {
    val und = edges.select(col("src") as "v").union(edges.select(col("dst") as "v"))
    und.groupBy("v").agg(count(lit(1)) as "degree")
  }

  /** One-row graph statistics (|V| with degree>0, |E|, max/avg degree) used
    * to print Table 3 — computed via DataFrame aggregation.
    */
  def graphStats(spark: SparkSession, edges: DataFrame): DataFrame = {
    degreeTable(spark, edges).agg(
      count(lit(1))                as "n_vertices",
      (sum(col("degree")) / 2)     as "n_edges",
      max(col("degree"))           as "max_degree",
      avg(col("degree"))           as "avg_degree")
  }
}
