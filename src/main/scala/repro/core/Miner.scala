package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** Quick+ or the original Quick baseline.
  *
  * Quick+ (Section 6) improves Quick in three ways:
  *  - all critical vertices are moved per bounding iteration (Quick: one);
  *  - boundary cases of the U_S / L_S computation trigger Type-II pruning
  *    (Quick: falls back to a loose bound);
  *  - G(S) itself is examined where only S's *extensions* are pruned —
  *    before a critical-vertex move, on Theorem 4 Condition (i), and when
  *    ext(S') becomes empty after diameter shrinking (Quick misses these
  *    checks and thus can miss maximal results).
  */
final case class MinerConfig(isQuickPlus: Boolean)

object Miner {
  /** Thrown when a mining run exceeds its wall-clock cap (used by the
    * Table 15 bench to mirror the paper's "> 24 hr" rows).
    */
  final class DeadlineExceeded extends RuntimeException("miner deadline exceeded")

  /** The spawn rule of plain recursion (A_base): no child becomes a task. */
  val NeverSpawn: Int => Boolean = _ => false
}

object MinerConfig {
  val quickPlus: MinerConfig = MinerConfig(isQuickPlus = true)
  val quick: MinerConfig     = MinerConfig(isQuickPlus = false)
}

/** Wall-clock nanoseconds spent in each pruning phase (Table 16). */
final class PhaseTimers extends Serializable {
  var lookaheadNs: Long = 0L
  var coverNs: Long     = 0L
  var criticalNs: Long  = 0L
  var boundNs: Long     = 0L
  def add(o: PhaseTimers): Unit = {
    lookaheadNs += o.lookaheadNs; coverNs += o.coverNs
    criticalNs += o.criticalNs; boundNs += o.boundNs
  }
}

/** The recursive quasi-clique miner over one in-memory graph.
  *
  * Implements Algorithm 2 (`iterativeBounding`) and one set-enumeration
  * search (`mine`) that is Algorithm 3 (`recursiveMine`), Algorithm 8's
  * decomposition and Algorithm 10's timeout decomposition at once: they
  * differ only in whether a child that survives bounding is recursed into
  * or spawned as a new task. The instance is single-threaded:
  * membership/degree scratch arrays are reused via stamps.
  *
  * Every candidate result is emitted through `sink` (vertex ids of `g`,
  * sorted); non-maximal ones are removed by `Maximality.filterMaximal`
  * afterwards, exactly like the paper's post-processing phase.
  *
  * Requires γ >= 0.5 (diameter-2 pruning, as in the paper's description).
  */
final class Miner(
    val g: LocalGraph,
    val gamma: Double,
    val tauSize: Int,
    sink: Array[Int] => Unit,
    config: MinerConfig = MinerConfig.quickPlus,
    timers: PhaseTimers = null,
    deadlineNanos: Long = Long.MaxValue) {

  require(gamma >= 0.5 && gamma <= 1.0, s"miner assumes diameter-2 pruning, needs gamma in [0.5,1], got $gamma")
  import QuasiClique.ceilGamma

  private val plus = config.isQuickPlus

  private val n = g.n
  // stamped membership + degree scratch (valid while `stamp` is unchanged)
  private val sMark   = new Array[Int](n)
  private val eMark   = new Array[Int](n)
  private val nbrMark = new Array[Int](n)
  private val dS      = new Array[Int](n)
  private val dExt    = new Array[Int](n)
  private var stamp    = 0
  private var nbrStamp = 0

  private def inS(v: Int): Boolean   = sMark(v) == stamp
  private def inExt(v: Int): Boolean = eMark(v) == stamp

  /** Recompute membership stamps and the four degree kinds (T2). */
  private def computeDegrees(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Unit = {
    stamp += 1
    var i = 0
    while (i < s.length) { sMark(s(i)) = stamp; i += 1 }
    i = 0
    while (i < ext.length) { eMark(ext(i)) = stamp; i += 1 }
    def fill(x: Int): Unit = {
      val a = g.adj(x); var ds = 0; var de = 0; var j = 0
      while (j < a.length) {
        val w = a(j)
        if (inS(w)) ds += 1 else if (inExt(w)) de += 1
        j += 1
      }
      dS(x) = ds; dExt(x) = de
    }
    i = 0
    while (i < s.length) { fill(s(i)); i += 1 }
    i = 0
    while (i < ext.length) { fill(ext(i)); i += 1 }
  }

  /** Emit S if it is a large-enough γ-quasi-clique; returns true if emitted. */
  private def checkOutput(s: ArrayBuffer[Int]): Boolean = {
    if (s.length >= tauSize) {
      val arr = s.toArray
      if (QuasiClique.isQuasiClique(g, arr, gamma)) { sink(QuasiClique.canon(arr)); return true }
    }
    false
  }

  private def boundsOf(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Bounds.Verdict = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    var sumDS = 0; var dMinTotal = Int.MaxValue; var dMinS = Int.MaxValue
    var i = 0
    while (i < s.length) {
      val v = s(i)
      sumDS += dS(v)
      if (dS(v) + dExt(v) < dMinTotal) dMinTotal = dS(v) + dExt(v)
      if (dS(v) < dMinS) dMinS = dS(v)
      i += 1
    }
    val dsExt = new Array[Int](ext.length)
    i = 0
    while (i < ext.length) { dsExt(i) = dS(ext(i)); i += 1 }
    java.util.Arrays.sort(dsExt)
    // reverse to non-increasing
    var lo = 0; var hi = dsExt.length - 1
    while (lo < hi) { val t = dsExt(lo); dsExt(lo) = dsExt(hi); dsExt(hi) = t; lo += 1; hi -= 1 }
    val v = Bounds.compute(s.length, sumDS, dMinTotal, dMinS, dsExt, gamma, quickCompat = !plus)
    if (timers ne null) timers.boundNs += System.nanoTime - t0
    v
  }

  // ------------------------------------------------------- Algorithm 2

  /** Iterative bound-based pruning. Returns true iff extending S (beyond S
    * itself) is pruned; S and ext are mutated in place (critical-vertex
    * moves grow S, Type-I pruning shrinks ext). Any mandated examination of
    * G(S) happens internally. S must be non-empty.
    */
  def iterativeBounding(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Boolean = {
    var looping = true
    while (looping && ext.nonEmpty) {
      computeDegrees(s, ext)
      boundsOf(s, ext) match {
        case Bounds.PruneExtensions =>
          if (plus) checkOutput(s)
          return true
        case Bounds.PruneAll => return true
        case Bounds.Ok(us0, ls0) =>
          if (us0 < ls0) return true
          var us = us0; var ls = ls0
          // ---- critical-vertex pruning (P6), looped until none remain ----
          var critDone = false
          while (!critDone && ext.nonEmpty) {
            val t0 = if (timers ne null) System.nanoTime else 0L
            val need = ceilGamma(gamma, s.length + ls - 1)
            val moved = ArrayBuffer.empty[Int]
            var i = 0
            val limitOne = !plus
            while (i < s.length && !(limitOne && moved.nonEmpty)) {
              val v = s(i)
              if (dExt(v) > 0 && dS(v) + dExt(v) == need) {
                val a = g.adj(v); var j = 0
                while (j < a.length) {
                  val w = a(j)
                  if (inExt(w)) { moved += w; eMark(w) = stamp - 1 } // unmark to dedup
                  j += 1
                }
              }
              i += 1
            }
            if (timers ne null) timers.criticalNs += System.nanoTime - t0
            if (moved.isEmpty) critDone = true
            else {
              // the paper examines G(S) before expanding it (missed by Quick)
              if (plus) checkOutput(s)
              s ++= moved
              ext.filterInPlace(u => !moved.contains(u))
              if (ext.nonEmpty) {
                computeDegrees(s, ext)
                boundsOf(s, ext) match {
                  case Bounds.PruneExtensions =>
                    if (plus) checkOutput(s)
                    return true
                  case Bounds.PruneAll => return true
                  case Bounds.Ok(u2, l2) =>
                    if (u2 < l2) return true
                    us = u2; ls = l2
                }
              }
            }
          }
          if (ext.isEmpty) { looping = false }
          else {
            // ---- Type-II pruning (Theorems 4, 6, 8) ----
            var thm4i = false
            val sLen = s.length
            var i = 0
            while (i < s.length) {
              val v = s(i); val ds = dS(v); val de = dExt(v)
              if (ds + de < ceilGamma(gamma, sLen - 1 + de)) return true   // Thm 4 (ii)
              if (ds + us < ceilGamma(gamma, sLen + us - 1)) return true   // Thm 6
              if (ds + de < ceilGamma(gamma, sLen + ls - 1)) return true   // Thm 8
              if (de == 0 && ds < ceilGamma(gamma, sLen)) thm4i = true     // Thm 4 (i)
              i += 1
            }
            if (thm4i) {
              // extensions pruned but G(S) itself survives (Quick prunes it)
              if (plus) checkOutput(s)
              return true
            }
            // ---- Type-I pruning (Theorems 3, 5, 7) ----
            val before = ext.length
            ext.filterInPlace { u =>
              val ds = dS(u); val de = dExt(u)
              val pruned =
                ds + de < ceilGamma(gamma, sLen + de) ||          // Thm 3
                ds + us - 1 < ceilGamma(gamma, sLen + us - 1) ||  // Thm 5
                ds + de < ceilGamma(gamma, sLen + ls - 1)         // Thm 7
              if (pruned) eMark(u) = stamp - 1                    // keep marks exact
              !pruned
            }
            if (ext.length == before) looping = false // fixpoint (case C2)
          }
      }
    }
    if (ext.isEmpty) { checkOutput(s); true } else false
  }

  // ------------------------------------------------- cover vertex (P7)

  /** C_S(u) of the best cover vertex u in ext (Eq 9), or null if the rule is
    * inapplicable for every u. Requires fresh membership/degrees for (s,ext).
    */
  private[core] def findCoverSet(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Array[Int] = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    val cg = ceilGamma(gamma, s.length)
    var best: Array[Int] = null
    var bestLen = 0
    var i = 0
    while (i < ext.length) {
      val u = ext(i)
      if (dS(u) >= cg) {
        // collect v in S not adjacent to u; all must have d_S(v) >= ⌈γ|S|⌉
        nbrStamp += 1
        val au = g.adj(u); var j = 0
        while (j < au.length) { nbrMark(au(j)) = nbrStamp; j += 1 }
        var ok = true
        val nonNbrs = ArrayBuffer.empty[Int]
        j = 0
        while (ok && j < s.length) {
          val v = s(j)
          if (nbrMark(v) != nbrStamp) { if (dS(v) >= cg) nonNbrs += v else ok = false }
          j += 1
        }
        if (ok) {
          var c = au.filter(inExt) // N_ext(u); early-skip if already too small
          if (c.length > bestLen) {
            var k = 0
            while (k < nonNbrs.length && c.length > bestLen) {
              val v = nonNbrs(k)
              nbrStamp += 1
              val av = g.adj(v); var l = 0
              while (l < av.length) { nbrMark(av(l)) = nbrStamp; l += 1 }
              c = c.filter(w => nbrMark(w) == nbrStamp)
              k += 1
            }
            if (c.length > bestLen) { best = c; bestLen = c.length }
          }
        }
      }
      i += 1
    }
    if (timers ne null) timers.coverNs += System.nanoTime - t0
    best
  }

  /** Test hook: cover set with fresh degree state. */
  private[core] def coverSetFor(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Array[Int] = {
    computeDegrees(s, ext)
    findCoverSet(s, ext)
  }

  /** ext sorted ascending by (d_S, d_ext) — Section 6.2's lookahead-friendly
    * order — with the cover set moved to the tail. Returns (ordered ext,
    * number of head vertices to examine).
    */
  private def orderExt(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): (ArrayBuffer[Int], Int) = {
    computeDegrees(s, ext)
    val sorted = ext.sortBy(u => (dS(u), dExt(u)))
    val cover  = findCoverSet(s, sorted)
    if (cover == null || cover.isEmpty) (sorted, sorted.length)
    else {
      nbrStamp += 1
      cover.foreach(nbrMark(_) = nbrStamp)
      val head = sorted.filter(u => nbrMark(u) != nbrStamp)
      val out  = head ++ sorted.filter(u => nbrMark(u) == nbrStamp)
      (out, head.length)
    }
  }

  /** Does the lookahead rule fire? G(S ∪ ext) valid => output it. */
  private def lookahead(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Boolean = {
    val t0  = if (timers ne null) System.nanoTime else 0L
    val all = (s ++ ext).toArray
    val ok  = QuasiClique.isQuasiClique(g, all, gamma)
    if (ok) sink(QuasiClique.canon(all))
    if (timers ne null) timers.lookaheadNs += System.nanoTime - t0
    ok
  }

  /** ext filtered to vertices within 2 hops of v (diameter pruning, P1). */
  private[core] def diameterShrink(ext: ArrayBuffer[Int], v: Int): ArrayBuffer[Int] = {
    nbrStamp += 1
    val av = g.adj(v); var i = 0
    while (i < av.length) { nbrMark(av(i)) = nbrStamp; i += 1 }
    ext.filter { u =>
      if (nbrMark(u) == nbrStamp) true
      else {
        val au = g.adj(u); var j = 0; var hit = false
        while (!hit && j < au.length) { if (nbrMark(au(j)) == nbrStamp) hit = true; j += 1 }
        hit
      }
    }
  }

  // ------------------------------------------------ Algorithms 3, 8, 10

  /** Mines all valid quasi-cliques extended from S (including G(S) when no
    * strict extension is found), never spawning. Returns true iff some
    * valid quasi-clique strictly extending S was emitted.
    */
  def recursiveMine(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int]): Boolean =
    mine(s0, ext0, Miner.NeverSpawn, null)

  /** The set-enumeration search. A child ⟨S', ext(S')⟩ at recursion depth
    * `d` (0 = children of the given S) that survives bounding is recursed
    * into unless `spawnAt(d)`; then it is handed to `spawn` and G(S') is
    * examined right away, since the parent cannot see the new task's
    * findings (Alg 8 line 15, Alg 10 line 23). Returns what
    * `recursiveMine` returns, counting only the recursed children.
    */
  def mine(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int], spawnAt: Int => Boolean,
           spawn: (Array[Int], Array[Int]) => Unit): Boolean =
    search(s0, ext0, 0, spawnAt, spawn)

  private def search(s0: ArrayBuffer[Int], ext0: ArrayBuffer[Int], depth: Int,
                     spawnAt: Int => Boolean, spawn: (Array[Int], Array[Int]) => Unit): Boolean = {
    var qFound = false
    val (ext, nHead) = orderExt(s0, ext0)
    var examined = 0
    while (examined < nHead) {
      if (System.nanoTime > deadlineNanos) throw new Miner.DeadlineExceeded
      if (s0.length + ext.length < tauSize) return qFound
      if (lookahead(s0, ext)) return true
      val v = ext.remove(0)
      val ext1 = diameterShrink(ext, v)
      val s1 = s0.clone() += v
      if (ext1.isEmpty) {
        // boundary case missed by the original Quick (may lose results)
        if (plus && checkOutput(s1)) qFound = true
      } else {
        val pruned = iterativeBounding(s1, ext1)
        if (!pruned && s1.length + ext1.length >= tauSize) {
          if (spawnAt(depth)) {
            spawn(s1.toArray, ext1.toArray)
            checkOutput(s1)
          } else if (search(s1, ext1, depth + 1, spawnAt, spawn)) qFound = true
          else if (checkOutput(s1)) qFound = true
        }
      }
      examined += 1
    }
    qFound
  }
}
