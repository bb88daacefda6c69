package repro

import repro.graph.LocalGraph

/** Helpers shared by the specs that compare answers across miners. */
object SpecHelpers {

  /** A miner's result sets as a set of vertex vectors, for order-free equality. */
  def canonSet(rs: Seq[Array[Int]]): Set[Vector[Int]] = rs.map(_.toVector).toSet

  /** `g` with vertex v renamed perm(v). */
  def relabel(g: LocalGraph, perm: Array[Int]): LocalGraph =
    LocalGraph.fromEdges(g.n, g.packedEdges.map(e =>
      LocalGraph.pack(perm(LocalGraph.unpackU(e)), perm(LocalGraph.unpackV(e)))))
}
