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
    * of d_S(v), and the d_S(u) values of ext sorted non-increasing.
    * `quickCompat` disables the boundary-case prunes that only Quick+ has
    * (falling back to the loosest feasible bound instead). This is the
    * reference form; the miner calls the one below.
    */
  def compute(
      sSize: Int,
      sumDS: Int,
      dMinTotal: Int,
      dMinS: Int,
      dSExtDesc: Array[Int],
      gamma: Double,
      quickCompat: Boolean): Verdict = {
    val nExt = dSExtDesc.length
    val prefix = new Array[Int](nExt + 1)
    var i = 0
    while (i < nExt) { prefix(i + 1) = prefix(i) + dSExtDesc(i); i += 1 }
    compute(sSize, sumDS, dMinTotal, dMinS, prefix, nExt, gamma,
      QuasiClique.ceilTable(gamma, sSize + nExt), quickCompat)
  }

  /** As above, with the d_S values of ext given as Lemma 2's prefix sums:
    * `prefix(t)` is the sum of the t largest, for 0 <= t <= nExt. `ceil(m)`
    * must be ⌈γ·m⌉ for m < sSize + nExt (see `QuasiClique.ceilTable`); γ
    * itself is still needed for ⌊d/γ⌋.
    */
  def compute(
      sSize: Int,
      sumDS: Int,
      dMinTotal: Int,
      dMinS: Int,
      prefix: Array[Int],
      nExt: Int,
      gamma: Double,
      ceil: Array[Int],
      quickCompat: Boolean): Verdict = {
    require(sSize > 0, "bounds need a non-empty S")

    def lemma2Holds(t: Int): Boolean =
      sumDS + prefix(t) >= sSize * ceil(sSize + t - 1)

    // ---- U_S (Eqs 1-4) ----
    val usMin = QuasiClique.floorDiv(dMinTotal, gamma) + 1 - sSize
    val tMaxU = math.min(usMin, nExt)
    var us = -1
    if (tMaxU >= 1) {
      var t = tMaxU
      while (t >= 1 && us < 0) { if (lemma2Holds(t)) us = t; t -= 1 }
    }
    if (us < 0) {
      if (!quickCompat) return PruneExtensions
      // Quick fallback: no boundary prune; if even U_S^min < 1 the original
      // Quick bound still prunes extensions (it is Quick's own Eq 3), but
      // without Quick+'s G(S) re-examination — the caller handles that.
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
    var ls = -1
    t = lsMin
    while (t <= nExt && ls < 0) { if (lemma2Holds(t)) ls = t; t += 1 }
    if (ls < 0) {
      if (!quickCompat) return PruneAll
      ls = lsMin // Quick fallback: keep the loose bound, no prune
    }
    Ok(us, ls)
  }
}
