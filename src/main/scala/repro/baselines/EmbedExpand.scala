package repro.baselines

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import repro.graph.LocalGraph

/** Arabesque-style embedding expansion: every level materializes ALL
  * partial embeddings as an RDD and repartitions them (shuffle), which is
  * the IO-bound dataflow pattern the paper's Table 4 compares against.
  * Intentionally naive — its cost IS the baseline being reproduced.
  */
object EmbedExpand {

  /** (v, adj(v)) for every vertex, read from a broadcast graph so that no
    * task binary carries the graph.
    */
  private def adjRDD(sc: SparkContext, bc: Broadcast[LocalGraph], p: Int): RDD[(Int, Array[Int])] =
    sc.parallelize(0 until bc.value.n, p).map(v => (v, bc.value.adj(v)))

  /** TC via wedge generation + closing-edge join (two shuffles). */
  def triangleCount(sc: SparkContext, g: LocalGraph, p: Int): AppResult = {
    val t0 = System.nanoTime
    val bc = sc.broadcast(g)
    val adj = adjRDD(sc, bc, p)
    // wedges centered at u: pairs (a, b) of higher neighbors, keyed by (a,b)
    val wedges: RDD[((Int, Int), Int)] = adj.flatMap { case (u, ns) =>
      val hi = ns.filter(_ > u)
      for (i <- hi.indices.iterator; j <- (i + 1 until hi.length).iterator)
        yield ((hi(i), hi(j)), u)
    }
    val edges: RDD[((Int, Int), Unit)] = adj.flatMap { case (u, ns) =>
      ns.iterator.filter(_ > u).map(v => ((u, v), ()))
    }
    val count = wedges.join(edges.partitionBy(new org.apache.spark.HashPartitioner(p))).count()
    bc.destroy()
    AppResult(count, (System.nanoTime - t0) / 1e6)
  }

  /** GM (4-cliques): expand triangles by one common neighbor (embedding
    * RDD per level, repartitioned).
    */
  def fourCliqueCount(sc: SparkContext, g: LocalGraph, p: Int): AppResult = {
    val t0 = System.nanoTime
    val bc = sc.broadcast(g)
    val vertices = sc.parallelize(0 until g.n, p)
    val triangles: RDD[(Int, Int, Int)] = vertices.flatMap { u =>
      val graph = bc.value
      val hi = graph.adj(u).filter(_ > u)
      for {
        i <- hi.indices.iterator
        j <- (i + 1 until hi.length).iterator
        if graph.hasEdge(hi(i), hi(j))
      } yield (u, hi(i), hi(j))
    }.repartition(p) // materialize + shuffle the embedding set (Arabesque-style)
    val count = triangles.flatMap { case (a, b, c) =>
      val graph = bc.value
      graph.adj(c).iterator.filter(d => d > c && graph.hasEdge(a, d) && graph.hasEdge(b, d)).map(_ => 1L)
    }.fold(0L)(_ + _)
    bc.destroy()
    AppResult(count, (System.nanoTime - t0) / 1e6)
  }

  /** MCF: grow the full clique-embedding RDD level by level until it dries
    * up; the last non-empty level is the maximum clique size. This is the
    * memory-exploding pattern that makes Arabesque run out of memory on the
    * paper's larger graphs; `maxEmbeddings` caps it so benches fail the same
    * way ("X" in Table 4) without killing the JVM.
    */
  def maxClique(sc: SparkContext, g: LocalGraph, p: Int,
                maxEmbeddings: Long = 20_000_000L): Either[String, AppResult] = {
    val t0 = System.nanoTime
    val bc = sc.broadcast(g)
    var level = 1
    var embeds: RDD[Array[Int]] = sc.parallelize(0 until g.n, p).map(Array(_))
    var lastNonEmpty = if (g.n > 0) 1 else 0
    var overflow = false
    var done = g.n == 0
    while (!done) {
      val next = embeds.flatMap { e =>
        val graph = bc.value
        val last = e(e.length - 1)
        graph.adj(last).iterator
          .filter(w => w > last && e.forall(graph.hasEdge(_, w)))
          .map(w => e :+ w)
      }.repartition(p).cache()
      val c = next.count()
      embeds.unpersist(false)
      if (c == 0) done = true
      else if (c > maxEmbeddings) { overflow = true; done = true; next.unpersist(false) }
      else { level += 1; lastNonEmpty = level; embeds = next }
    }
    bc.destroy()
    if (overflow) Left("out of memory (embedding explosion)")
    else Right(AppResult(lastNonEmpty.toLong, (System.nanoTime - t0) / 1e6))
  }
}
