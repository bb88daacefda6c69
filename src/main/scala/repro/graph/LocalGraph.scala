package repro.graph

/** Compact undirected graph with vertices `0 until n`.
  *
  * Adjacency lists are sorted ascending, contain no self-loops and no
  * duplicates, and are symmetric (u in adj(v) iff v in adj(u)). This is the
  * in-memory representation every miner and every G-thinker task works on;
  * it is Serializable so it can be broadcast to Spark executors.
  */
final class LocalGraph(val adj: Array[Array[Int]]) extends Serializable {

  /** Number of vertices (including isolated ones). */
  val n: Int = adj.length

  /** Degree of vertex v. */
  def degree(v: Int): Int = adj(v).length

  /** Number of undirected edges. */
  lazy val numEdges: Long = {
    var s = 0L; var i = 0
    while (i < n) { s += adj(i).length; i += 1 }
    s / 2
  }

  /** Maximum vertex degree (0 for the empty graph). */
  def maxDegree: Int = {
    var m = 0; var i = 0
    while (i < n) { if (adj(i).length > m) m = adj(i).length; i += 1 }
    m
  }

  /** Average degree = 2|E| / |V| (0 for the empty graph). */
  def avgDegree: Double = if (n == 0) 0.0 else 2.0 * numEdges / n

  /** Edge test by binary search over the sorted adjacency list. */
  def hasEdge(u: Int, v: Int): Boolean =
    u != v && java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** All edges as packed longs (src < dst). */
  def packedEdges: Array[Long] = {
    val out = Array.newBuilder[Long]
    var u = 0
    while (u < n) {
      val a = adj(u); var i = 0
      while (i < a.length) { if (a(i) > u) out += LocalGraph.pack(u, a(i)); i += 1 }
      u += 1
    }
    out.result()
  }
}

object LocalGraph {

  /** Pack an edge into a long; endpoints must be < 2^31. */
  def pack(u: Int, v: Int): Long = (u.toLong << 32) | (v.toLong & 0xffffffffL)
  def unpackU(e: Long): Int      = (e >>> 32).toInt
  def unpackV(e: Long): Int      = (e & 0xffffffffL).toInt

  /** Build from an edge list; edges are deduplicated, symmetrized, and
    * self-loops dropped. `n` fixes the vertex-id space `0 until n`.
    */
  def fromEdges(n: Int, edges: Array[Long]): LocalGraph = {
    // Symmetrize into one packed array of directed arcs, then sort + unique.
    val arcs = new Array[Long](edges.length * 2)
    var i = 0; var w = 0
    while (i < edges.length) {
      val u = unpackU(edges(i)); val v = unpackV(edges(i))
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range [0,$n)")
      if (u != v) { arcs(w) = pack(u, v); arcs(w + 1) = pack(v, u); w += 2 }
      i += 1
    }
    java.util.Arrays.sort(arcs, 0, w)
    val deg = new Array[Int](n)
    var prev = -1L; i = 0
    while (i < w) { val e = arcs(i); if (e != prev) { deg(unpackU(e)) += 1; prev = e }; i += 1 }
    val adj = Array.tabulate(n)(v => new Array[Int](deg(v)))
    val fill = new Array[Int](n)
    prev = -1L; i = 0
    while (i < w) {
      val e = arcs(i)
      if (e != prev) {
        val u = unpackU(e)
        adj(u)(fill(u)) = unpackV(e); fill(u) += 1
        prev = e
      }
      i += 1
    }
    new LocalGraph(adj)
  }

  /** Convenience builder from (u, v) pairs. */
  def fromPairs(n: Int, pairs: Iterable[(Int, Int)]): LocalGraph =
    fromEdges(n, pairs.iterator.map { case (u, v) => pack(u, v) }.toArray)

  /** The empty graph on n vertices. */
  def empty(n: Int): LocalGraph = new LocalGraph(Array.fill(n)(Array.emptyIntArray))
}
