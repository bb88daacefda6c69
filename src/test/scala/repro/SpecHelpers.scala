package repro

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import repro.graph.LocalGraph

/** Helpers shared by the specs. */
object SpecHelpers {

  /** A miner's result sets as a set of vertex vectors, for order-free equality. */
  def canonSet(rs: Seq[Array[Int]]): Set[Vector[Int]] = rs.map(_.toVector).toSet

  /** `g` with vertex v renamed perm(v). */
  def relabel(g: LocalGraph, perm: Array[Int]): LocalGraph =
    LocalGraph.fromEdges(g.n, g.packedEdges.map(e =>
      LocalGraph.pack(perm(LocalGraph.unpackU(e)), perm(LocalGraph.unpackV(e)))))

  /** Whether computing `r` runs a shuffle anywhere in its lineage. */
  def hasShuffle(r: RDD[_]): Boolean =
    r.dependencies.exists(d => d.isInstanceOf[ShuffleDependency[_, _, _]] || hasShuffle(d.rdd))
}
