package repro.core

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

  /** f(m) = 2⌈γ(m − 1)⌉ − m + 2: two members of a γ-quasi-clique of m
    * vertices each have at least ⌈γ(m − 1)⌉ neighbours in it, all but each
    * other among the other m − 2, so they share at least f(m) neighbours
    * if they are not adjacent and f(m) − 2 if they are (rule A, DESIGN.md).
    */
  def pairBound(gamma: Double, m: Int): Int = 2 * ceilGamma(gamma, m - 1) - m + 2

  /** The least f(m) over max(τ_size, 2) <= m <= n: the common-neighbour
    * bound of every member pair of a result in an n-vertex task. f is not
    * monotone (it steps down where ⌈γm⌉ skips), so every m is tried. An
    * empty range gives 1, P1's bound.
    */
  def minPairBound(gamma: Double, tauSize: Int, n: Int): Int = {
    var m = math.max(tauSize, 2)
    if (m > n) return 1
    var least = Int.MaxValue
    while (m <= n) { least = math.min(least, pairBound(gamma, m)); m += 1 }
    least
  }

  /** ⌊x/γ⌋ with the symmetric epsilon guard (used by the U_S bound). */
  def floorDiv(x: Double, gamma: Double): Int = math.floor(x / gamma + 1e-9).toInt

  /** Canonical form of a result set: sorted vertex array. */
  def canon(vs: Array[Int]): Array[Int] = { val a = vs.clone(); java.util.Arrays.sort(a); a }
}
