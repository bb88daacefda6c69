package repro.core

import repro.graph.{GraphOps, LocalGraph}

/** Definitions 1–3 of the paper: γ-quasi-cliques, maximality, and the
  * mining problem (all maximal γ-quasi-cliques with ≥ τ_size vertices).
  */
object QuasiClique {

  /** ⌈γ·m⌉ computed robustly: γ values like 0.9 are not exactly
    * representable, so 0.9*10 = 9.000000000000002 would naively ceil to 10.
    * A small epsilon keeps the mathematical value.
    */
  def ceilGamma(gamma: Double, m: Int): Int = {
    if (m <= 0) 0 else math.ceil(gamma * m - 1e-9).toInt
  }

  /** ⌈γ·m⌉ for 0 <= m <= upTo, so hot loops read a table, not `math.ceil`. */
  def ceilTable(gamma: Double, upTo: Int): Array[Int] = {
    val t = new Array[Int](upTo + 1)
    var m = 0
    while (m <= upTo) { t(m) = ceilGamma(gamma, m); m += 1 }
    t
  }

  /** ⌊x/γ⌋ with the symmetric epsilon guard (used by the U_S bound). */
  def floorDiv(x: Double, gamma: Double): Int = math.floor(x / gamma + 1e-9).toInt

  /** Is G(vs) a γ-quasi-clique (Definition 1)? Requires connectivity and
    * every vertex to have ≥ ⌈γ·(|vs|-1)⌉ neighbors inside vs.
    */
  def isQuasiClique(g: LocalGraph, vs: Array[Int], gamma: Double): Boolean = {
    val m = vs.length
    if (m == 0) return false
    if (m == 1) return true
    val need = ceilGamma(gamma, m - 1)
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
    GraphOps.connectedInduced(g, vs)
  }

  /** Canonical form of a result set: sorted vertex array. */
  def canon(vs: Array[Int]): Array[Int] = { val a = vs.clone(); java.util.Arrays.sort(a); a }
}
