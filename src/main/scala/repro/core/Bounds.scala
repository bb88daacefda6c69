package repro.core

/** Upper bound U_S (P4, Eqs 1–4) and lower bound L_S (P5, Eqs 6–8) on the
  * number of ext(S) vertices that can extend S into a valid γ-quasi-clique.
  *
  * Boundary cases (no feasible t) are surfaced as verdicts so the caller can
  * apply the Type-II prunes that Quick+ adds over Quick:
  *  - U_S infeasible  -> extensions pruned, G(S) itself still a candidate;
  *  - L_S infeasible  -> S and all extensions pruned.
  */
object Bounds {

  sealed trait Verdict
  /** Extensions of S are pruned; caller must still examine G(S). */
  case object PruneExtensions extends Verdict
  /** S and all its extensions are pruned. */
  case object PruneAll extends Verdict
  /** Both bounds exist. */
  final case class Ok(us: Int, ls: Int) extends Verdict

  /** Inputs: |S|, Σ_{v∈S} d_S(v), min over S of d_S(v)+d_ext(v), min over S
    * of d_S(v), and the d_S values of ext as a histogram: `hist(d)` is the
    * number of ext vertices with d_S = d, for 0 <= d <= sSize (bins above
    * sSize are ignored), and nExt is their total. `quickCompat` disables the
    * boundary-case prunes that only Quick+ has (falling back to the loosest
    * feasible bound instead).
    *
    * Lemma 2's prefix sums are walked lazily from the histogram: U_S needs
    * prefix(t) only from tMaxU downwards, L_S only from lsMin upwards, each
    * until its first hit, so a pass costs O(sSize + steps) instead of
    * O(nExt). `ceil(m)` must be ⌈γ·m⌉ for m < sSize + nExt (see
    * `QuasiClique.ceilTable`); γ itself is still needed for ⌊d/γ⌋.
    * `BoundsSpec` holds the eager reference form, which expands all of the
    * prefix sums up front, and checks this one against it.
    */
  def compute(
      sSize: Int,
      sumDS: Int,
      dMinTotal: Int,
      dMinS: Int,
      hist: Array[Int],
      nExt: Int,
      gamma: Double,
      ceil: Array[Int],
      quickCompat: Boolean): Verdict = {
    require(sSize > 0, "bounds need a non-empty S")

    // ---- U_S (Eqs 1-4) ----
    val usMin = QuasiClique.floorDiv(dMinTotal, gamma) + 1 - sSize
    val tMaxU = math.min(usMin, nExt)
    var us = -1
    if (tMaxU >= 1) {
      // jump whole bins from the top to the bin d holding the tMaxU-th
      // largest value; `left` of the t largest lie in bin d
      var d = sSize; var above = 0; var p = 0
      while (above + hist(d) < tMaxU) { above += hist(d); p += d * hist(d); d -= 1 }
      var left = tMaxU - above
      p += d * left
      var t = tMaxU
      while (us < 0 && t >= 1) {
        if (sumDS + p >= sSize * ceil(sSize + t - 1)) us = t
        else {
          // prefix(t - 1) drops the t-th largest, the last one taken from bin d
          p -= d; left -= 1; t -= 1
          if (left == 0 && t > 0) { d += 1; while (hist(d) == 0) d += 1; left = hist(d) }
        }
      }
    }
    if (us < 0) {
      if (!quickCompat) return PruneExtensions
      // Quick fallback: no boundary prune; if even U_S^min < 1 the original
      // Quick bound still prunes extensions (it is Quick's own Eq 3), and the
      // caller examines G(S) for Quick+ only (one of its two live G(S)
      // checks). Both returns also cover Theorem 4 (i) (DESIGN.md, lemma (i)).
      if (tMaxU < 1) return PruneExtensions
      us = tMaxU
    }

    // ---- L_S (Eqs 6-8) ----
    var lsMin = -1
    var t = 0
    while (t <= nExt && lsMin < 0) {
      if (dMinS + t >= ceil(sSize + t - 1)) lsMin = t
      t += 1
    }
    if (lsMin < 0) return PruneAll // Eq 7 infeasible: basic math, both variants prune
    // jump whole bins from the top while they fit in the lsMin largest; the
    // next value to add is then in bin d, of which `used` are taken
    var d = sSize; var taken = 0; var p = 0
    while (d >= 0 && taken + hist(d) <= lsMin) { taken += hist(d); p += d * hist(d); d -= 1 }
    var used = lsMin - taken
    p += d * used
    var ls = -1
    t = lsMin
    while (ls < 0 && t <= nExt) {
      if (sumDS + p >= sSize * ceil(sSize + t - 1)) ls = t
      else if (t < nExt) {
        while (used == hist(d)) { d -= 1; used = 0 }
        p += d; used += 1
      }
      t += 1
    }
    if (ls < 0) {
      if (!quickCompat) return PruneAll
      ls = lsMin // Quick fallback: keep the loose bound, no prune
    }
    Ok(us, ls)
  }
}
