package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalGraph

/** Catalyst/DataFrame self-join implementations of TC and GM — the stand-in
  * for the Giraph / G-Miner columns of Table 4: the same answers computed by
  * a shuffle-bound relational dataflow instead of compute tasks. MCF has no
  * reasonable relational form ("-" in the table).
  */
object SqlJoin {

  /** `g`'s edges as a DataFrame (src, dst) with src < dst, one row per edge.
    * The broadcast under it is left to Spark's cleaner; `timedCount`
    * destroys its own.
    */
  def graphEdges(spark: SparkSession, g: LocalGraph): DataFrame =
    edgeTable(spark, spark.sparkContext.broadcast(g))

  /** The edge table made on the executors: vertex v emits (v, w) for each
    * neighbour w > v. A parallelized Range is sliced into Ranges, so no task
    * carries edge rows.
    */
  private def edgeTable(spark: SparkSession, bc: Broadcast[LocalGraph]): DataFrame = {
    import spark.implicits._
    val sc = spark.sparkContext
    sc.parallelize(0 until bc.value.n, math.max(1, sc.defaultParallelism))
      .flatMap(v => bc.value.adj(v).iterator.filter(_ > v).map(w => (v, w)))
      .toDF("src", "dst")
  }

  /** Times `count` over `g`'s edge table, which is materialized first: the
    * joins are the workload.
    */
  private def timedCount(spark: SparkSession, g: LocalGraph)(count: DataFrame => Long): AppResult = {
    val t0 = System.nanoTime
    val bc = spark.sparkContext.broadcast(g)
    val e = edgeTable(spark, bc).cache()
    e.count()
    val n = count(e)
    e.unpersist()
    bc.destroy()
    AppResult(n, (System.nanoTime - t0) / 1e6)
  }

  /** The triangles of edge table `e` as rows (a, b, c) with a<b<c:
    * e1(a,b) ⋈ e2(b,c) ⋈ e3(a,c).
    */
  def triangles(e: DataFrame): DataFrame =
    e.toDF("a", "b").join(e.toDF("b", "c"), "b").join(e.toDF("a", "c"), Seq("a", "c"))

  /** Triangle count: the row count of `triangles`. */
  def triangleCount(spark: SparkSession, g: LocalGraph): AppResult =
    timedCount(spark, g)(triangles(_).count())

  /** 4-clique count: six-edge join over a<b<c<d. */
  def fourCliqueCount(spark: SparkSession, g: LocalGraph): AppResult =
    timedCount(spark, g) { e =>
      val ab = e.toDF("a", "b")
      val ac = e.toDF("a", "c")
      val ad = e.toDF("a", "d")
      val bc = e.toDF("b", "c")
      val bd = e.toDF("b", "d")
      val cd = e.toDF("c", "d")
      ab.join(bc, "b").join(ac, Seq("a", "c"))
        .join(cd, "c").join(bd, Seq("b", "d")).join(ad, Seq("a", "d"))
        .count()
    }
}
