package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable

/** Exponential ground-truth enumerators for tests (n <= ~18 vertices), and
  * the list-based Definition 1 they test sets with. These define
  * correctness: the miners must agree with them exactly.
  */
object BruteForce {

  /** Is G(vs) a γ-quasi-clique (Definition 1)? Requires connectivity and
    * every vertex to have ≥ ⌈γ·(|vs|-1)⌉ neighbors inside vs.
    */
  def isQuasiClique(g: LocalGraph, vs: Array[Int], gamma: Double): Boolean = {
    val m = vs.length
    if (m == 0) return false
    if (m == 1) return true
    val need = QuasiClique.ceilGamma(gamma, m - 1)
    val in   = new java.util.HashSet[Integer](m * 2)
    vs.foreach(v => in.add(v))
    var i = 0
    while (i < m) {
      val a = g.adj(vs(i)); var d = 0; var j = 0
      while (j < a.length) { if (in.contains(a(j))) d += 1; j += 1 }
      if (d < need) return false
      i += 1
    }
    // For γ >= 0.5 the degree condition implies diameter <= 2 and hence
    // connectivity; we still verify for smaller γ and for safety.
    connectedInduced(g, vs)
  }

  /** Is the subgraph induced by `vs` connected? BFS restricted to `vs`. */
  def connectedInduced(g: LocalGraph, vs: Array[Int]): Boolean = {
    if (vs.length <= 1) return true
    val in = new mutable.HashSet[Int]
    vs.foreach(in += _)
    val seen  = new mutable.HashSet[Int]
    val queue = new java.util.ArrayDeque[Int]()
    queue.add(vs(0)); seen += vs(0)
    while (!queue.isEmpty) {
      val u = queue.poll()
      val a = g.adj(u); var i = 0
      while (i < a.length) {
        val w = a(i)
        if (in.contains(w) && seen.add(w)) queue.add(w)
        i += 1
      }
    }
    seen.size == vs.length
  }

  /** All valid γ-quasi-cliques with >= tauSize vertices, as sorted arrays. */
  def allValid(g: LocalGraph, gamma: Double, tauSize: Int): Seq[Array[Int]] = {
    require(g.n <= 22, s"brute force is exponential; got n=${g.n}")
    val out = Seq.newBuilder[Array[Int]]
    var mask = 1L
    val limit = 1L << g.n
    while (mask < limit) {
      if (java.lang.Long.bitCount(mask) >= tauSize) {
        val vs = (0 until g.n).filter(v => (mask & (1L << v)) != 0).toArray
        if (isQuasiClique(g, vs, gamma)) out += vs
      }
      mask += 1
    }
    out.result()
  }

  /** All MAXIMAL valid γ-quasi-cliques with >= tauSize vertices.
    * Maximality is with respect to all valid quasi-cliques (any superset of
    * a size >= tauSize set is itself >= tauSize, so filtering within the
    * thresholded set is equivalent).
    */
  def allMaximal(g: LocalGraph, gamma: Double, tauSize: Int): Seq[Array[Int]] =
    Maximality.filterMaximal(allValid(g, gamma, tauSize))

  /** Maximum clique size (simple branch and bound, for MCF tests). */
  def maxCliqueSize(g: LocalGraph): Int = {
    var best = 0
    def grow(current: List[Int], cand: Array[Int]): Unit = {
      if (current.size > best) best = current.size
      if (current.size + cand.length <= best) return
      var i = 0
      while (i < cand.length) {
        val v = cand(i)
        val rest = cand.drop(i + 1).filter(g.hasEdge(v, _))
        grow(v :: current, rest)
        i += 1
      }
    }
    grow(Nil, (0 until g.n).toArray)
    best
  }

  /** Exact triangle count (for TC tests). */
  def triangles(g: LocalGraph): Long = {
    var c = 0L
    var u = 0
    while (u < g.n) {
      val a = g.adj(u)
      var i = 0
      while (i < a.length) {
        val v = a(i)
        if (v > u) {
          var j = i + 1
          while (j < a.length) { if (a(j) > v && g.hasEdge(v, a(j))) c += 1; j += 1 }
        }
        i += 1
      }
      u += 1
    }
    c
  }

  /** Exact 4-clique count (for the GM workload of Table 4). */
  def fourCliques(g: LocalGraph): Long = {
    var c = 0L
    var u = 0
    while (u < g.n) {
      val a = g.adj(u).filter(_ > u)
      var i = 0
      while (i < a.length) {
        var j = i + 1
        while (j < a.length) {
          if (g.hasEdge(a(i), a(j))) {
            var k = j + 1
            while (k < a.length) {
              if (g.hasEdge(a(i), a(k)) && g.hasEdge(a(j), a(k))) c += 1
              k += 1
            }
          }
          j += 1
        }
        i += 1
      }
      u += 1
    }
    c
  }
}
