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

  /** One search node's bounding state: S and ext in the first `sLen` /
    * `extLen` slots of arrays sized to the task graph, their bitsets, d_S
    * and d_ext of every vertex of S ∪ ext, and `hist`, where hist(d) is the
    * number of ext vertices with d_S = d for 0 <= d <= sLen (bins above
    * sLen are stale and never read). A child's state is derived
    * from its parent's frame, and `iterativeBounding` keeps it exact as it
    * moves and prunes vertices. d_ext of the ext vertices is filled only
    * once a bound check passes (`extDegrees`). `rest` is S ∪
    * ext(examined until extLen) while the node branches: the set its next
    * lookahead tests. Every node at one depth reuses one frame.
    */
  private final class Frame(n: Int, words: Int) {
    val s     = new Array[Int](n)
    val ext   = new Array[Int](n)
    val sBits = new Array[Long](words)
    val eBits = new Array[Long](words)
    val rest  = new Array[Long](words)
    val dS    = new Array[Int](n)
    val dExt  = new Array[Int](n)
    val hist  = new Array[Int](n + 1)
    var sLen   = 0
    var extLen = 0
    var extDegrees = false
  }
}

object MinerConfig {
  val quickPlus: MinerConfig = MinerConfig(isQuickPlus = true)
  val quick: MinerConfig     = MinerConfig(isQuickPlus = false)
}

/** Wall-clock nanoseconds spent in each pruning phase (Table 16).
  *
  * A miner reads the clock around its phases only when it is given one of
  * these: each phase costs two `System.nanoTime` calls per step, which is
  * a measurable share of a serial run. Callers that report Table 16's
  * phases pass an instance and read it afterwards.
  */
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
  * or spawned as a new task. The instance is single-threaded.
  *
  * The adjacency is held as bitset rows (n²/8 bytes), so degrees into S and
  * ext, the validity checks, the cover set (P7) and the diameter shrink (P1)
  * are word-parallel ANDs, ORs and popcounts. Each search depth keeps one
  * frame of primitive arrays, reused across siblings: S, ext, their bitsets
  * and their degrees, derived from the parent's frame. So the search
  * allocates only what it emits or spawns, and only the task root computes
  * its degrees from scratch.
  *
  * Every candidate result is emitted through `sink` (vertex ids of `g`,
  * sorted); non-maximal ones are removed by `Maximality.filterMaximal`
  * afterwards, exactly like the paper's post-processing phase.
  *
  * Requires γ >= 0.5: diameter-2 pruning (P1, as in the paper's
  * description) and the degree-only validity check (`qBitsValid`) rest on it.
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
  // orderExt packs (d_S, d_ext, position) into one Long, 21 bits each
  require(g.n < (1 << 21), s"task graph too large for the miner: ${g.n} vertices")
  import java.lang.Long.{bitCount, numberOfTrailingZeros}

  private val plus = config.isQuickPlus

  private val n = g.n
  // adjacency bitsets: the neighbours of v are the set bits of
  // rows(v * words until (v + 1) * words)
  private val words = (n + 63) >>> 6
  private val rows  = new Array[Long](n * words)
  locally {
    var v = 0
    while (v < n) {
      val a = g.adj(v); val base = v * words; var j = 0
      while (j < a.length) { val w = a(j); rows(base + (w >>> 6)) |= 1L << w; j += 1 }
      v += 1
    }
  }

  // ⌈γ·m⌉ for every m a prune test asks about (all m <= n + 1)
  private[core] val ceilG = QuasiClique.ceilTable(gamma, n + 1)

  // 2-hop reach of v (its row OR its neighbours' rows), laid out like rows
  // and filled the first time v branches; reachKnown marks the filled ones
  private val reachRows  = new Array[Long](n * words)
  private val reachKnown = new Array[Long](words)

  // scratch bitsets: a vertex set under test, a cover-set candidate, the
  // best cover set and the low-d_S vertices of S
  private val qBits = new Array[Long](words)
  private val cand  = new Array[Long](words)
  private val cover = new Array[Long](words)
  private val low   = new Array[Long](words)
  // scratch for Type-I removals and ordering ext
  private val removed = new Array[Int](n)
  private val keys    = new Array[Long](n)
  private val extCopy = new Array[Int](n)
  private val frames  = ArrayBuffer.empty[Miner.Frame]

  /** Checked mode (tests only): after every derivation or update of a
    * frame's state, compare it with a full `computeDegrees`.
    */
  private[core] var checkState = false
  private lazy val checkFrame = new Miner.Frame(n, words)

  private def frame(depth: Int): Miner.Frame = {
    while (frames.length <= depth) frames += new Miner.Frame(n, words)
    frames(depth)
  }

  // branches taken so far: the deadline is checked on the first and then
  // on every 64th, and never without one
  private val capped = deadlineNanos != Long.MaxValue
  private var branches = 0

  @inline private def has(bits: Array[Long], v: Int): Boolean = (bits(v >>> 6) & (1L << v)) != 0
  /** 1 if u and v are adjacent, else 0. */
  @inline private def adjBit(u: Int, v: Int): Int = (rows(u * words + (v >>> 6)) >>> v).toInt & 1

  private def clear(bits: Array[Long]): Unit = { var k = 0; while (k < words) { bits(k) = 0L; k += 1 } }

  /** `bits` := the vertices in a(from until to). */
  private def setBits(bits: Array[Long], a: Array[Int], from: Int, to: Int): Unit = {
    clear(bits)
    var i = from
    while (i < to) { val v = a(i); bits(v >>> 6) |= 1L << v; i += 1 }
  }

  /** The m set bits of `bits`, ascending. */
  private def members(bits: Array[Long], m: Int): Array[Int] = {
    val out = new Array[Int](m)
    var i = 0; var k = 0
    while (k < words) {
      var w = bits(k)
      while (w != 0) { out(i) = (k << 6) | numberOfTrailingZeros(w); i += 1; w &= w - 1 }
      k += 1
    }
    out
  }

  /** |N(x) ∩ bits| by popcount over x's row. */
  private def degreeInto(x: Int, bits: Array[Long]): Int = {
    val base = x * words; var d = 0; var k = 0
    while (k < words) { d += bitCount(rows(base + k) & bits(k)); k += 1 }
    d
  }

  /** f's whole state from its S and ext arrays (T2): the task root and the
    * test hooks start from this; every other frame derives or updates it.
    */
  private def computeDegrees(f: Miner.Frame): Unit = {
    setBits(f.sBits, f.s, 0, f.sLen)
    setBits(f.eBits, f.ext, 0, f.extLen)
    var i = 0
    while (i < f.sLen) { val x = f.s(i); f.dS(x) = degreeInto(x, f.sBits); f.dExt(x) = degreeInto(x, f.eBits); i += 1 }
    java.util.Arrays.fill(f.hist, 0, f.sLen + 1, 0)
    i = 0
    while (i < f.extLen) {
      val x = f.ext(i); val d = degreeInto(x, f.sBits)
      f.dS(x) = d; f.dExt(x) = degreeInto(x, f.eBits); f.hist(d) += 1
      i += 1
    }
    f.extDegrees = true
  }

  /** The state of child c = ⟨S ∪ {v}, ext'⟩ from its parent f, whose state
    * is exact and whose `rest` has just lost v: ext' (already in c.ext, v's
    * reach row cached) is rest ∧ ¬S ∧ reach(v), d_S of a vertex gains one if
    * it is v's neighbour, the histogram counts ext' afresh, and d_ext is
    * counted for S ∪ {v} only.
    */
  private def deriveChild(f: Miner.Frame, c: Miner.Frame, v: Int): Unit = {
    val rv = v * words
    var k = 0
    while (k < words) {
      c.sBits(k) = f.sBits(k)
      c.eBits(k) = f.rest(k) & ~f.sBits(k) & reachRows(rv + k)
      k += 1
    }
    c.sBits(v >>> 6) |= 1L << v
    var i = 0
    while (i < c.sLen) {
      val x = c.s(i)
      c.dS(x) = f.dS(x) + adjBit(v, x)
      c.dExt(x) = degreeInto(x, c.eBits)
      i += 1
    }
    val hist = c.hist
    java.util.Arrays.fill(hist, 0, c.sLen + 1, 0)
    i = 0
    while (i < c.extLen) { val x = c.ext(i); val d = f.dS(x) + adjBit(v, x); c.dS(x) = d; hist(d) += 1; i += 1 }
    c.extDegrees = false
    if (checkState) assertExact(c)
  }

  /** d_ext of f's ext vertices, which a derived state leaves unfilled. */
  private def fillExtDegrees(f: Miner.Frame): Unit = {
    var i = 0
    while (i < f.extLen) { val x = f.ext(i); f.dExt(x) = degreeInto(x, f.eBits); i += 1 }
    f.extDegrees = true
    if (checkState) assertExact(f)
  }

  /** The critical vertices s(from until to), already cleared from eBits,
    * join S: ext drops them, order kept, and each moved vertex's neighbours
    * in S ∪ ext gain one d_S and lose one d_ext. A moved vertex leaves its
    * histogram bin and a neighbour still in ext moves up one bin; the bins
    * (from, to], new with the larger S, start empty.
    */
  private def moveToS(f: Miner.Frame, from: Int, to: Int): Unit = {
    val dS = f.dS; val dExt = f.dExt; val hist = f.hist
    var i = from
    while (i < to) { val m = f.s(i); f.sBits(m >>> 6) |= 1L << m; hist(dS(m)) -= 1; i += 1 }
    java.util.Arrays.fill(hist, from + 1, to + 1, 0)
    var kept = 0
    i = 0
    while (i < f.extLen) { val u = f.ext(i); if (has(f.eBits, u)) { f.ext(kept) = u; kept += 1 }; i += 1 }
    f.extLen = kept
    i = from
    while (i < to) {
      val base = f.s(i) * words; var k = 0
      while (k < words) {
        val r = rows(base + k)
        var w = r & f.sBits(k)
        while (w != 0) { val y = (k << 6) | numberOfTrailingZeros(w); dS(y) += 1; dExt(y) -= 1; w &= w - 1 }
        w = r & f.eBits(k)
        while (w != 0) {
          val y = (k << 6) | numberOfTrailingZeros(w); val d = dS(y)
          hist(d) -= 1; hist(d + 1) += 1; dS(y) = d + 1; dExt(y) -= 1
          w &= w - 1
        }
        k += 1
      }
      i += 1
    }
    if (checkState) assertExact(f)
  }

  /** The Type-I removals removed(0 until count), already gone from ext and
    * eBits: each one's neighbours in S ∪ ext lose one d_ext.
    */
  private def dropRemoved(f: Miner.Frame, count: Int): Unit = {
    var i = 0
    while (i < count) {
      val base = removed(i) * words; var k = 0
      while (k < words) {
        var w = rows(base + k) & (f.sBits(k) | f.eBits(k))
        while (w != 0) { f.dExt((k << 6) | numberOfTrailingZeros(w)) -= 1; w &= w - 1 }
        k += 1
      }
      i += 1
    }
    if (checkState) assertExact(f)
  }

  /** Checked mode: f's bitsets, d_S, d_ext (of ext only once filled) and
    * histogram bins 0..|S| equal those of a full recompute from its arrays.
    */
  private def assertExact(f: Miner.Frame): Unit = {
    val r = checkFrame
    System.arraycopy(f.s, 0, r.s, 0, f.sLen); r.sLen = f.sLen
    System.arraycopy(f.ext, 0, r.ext, 0, f.extLen); r.extLen = f.extLen
    computeDegrees(r)
    def fail(what: String) = throw new IllegalStateException(
      s"derived bounding state differs from a recompute: $what (S=${f.s.take(f.sLen).toSeq}, ext=${f.ext.take(f.extLen).toSeq})")
    if (!java.util.Arrays.equals(f.sBits, r.sBits)) fail("S bits")
    if (!java.util.Arrays.equals(f.eBits, r.eBits)) fail("ext bits")
    var i = 0
    while (i < f.sLen) {
      val x = f.s(i)
      if (f.dS(x) != r.dS(x) || f.dExt(x) != r.dExt(x)) fail(s"degrees of $x in S")
      i += 1
    }
    i = 0
    while (i < f.extLen) {
      val x = f.ext(i)
      if (f.dS(x) != r.dS(x) || (f.extDegrees && f.dExt(x) != r.dExt(x))) fail(s"degrees of $x in ext")
      i += 1
    }
    i = 0
    while (i <= f.sLen) { if (f.hist(i) != r.hist(i)) fail(s"d_S histogram bin $i"); i += 1 }
  }

  /** Definition 1 for the m vertices in `qBits`, by popcount degrees
    * alone: with γ >= 0.5 the degree test implies connectivity. Each member
    * has at least ⌈γ(m − 1)⌉ >= ⌈(m − 1)/2⌉ neighbours in the set (the
    * table's 1e-9 guard keeps this). So two non-adjacent members have at
    * least m − 1 neighbours between them among the other m − 2 and share
    * one: the set has diameter <= 2 (Pei, Jiang & Zhang, KDD 2005).
    */
  private def qBitsValid(m: Int): Boolean = {
    if (m == 0) return false
    val need = ceilG(m - 1)
    var k = 0
    while (k < words) {
      var w = qBits(k)
      while (w != 0) {
        val base = ((k << 6) | numberOfTrailingZeros(w)) * words; var d = 0; var j = 0
        while (j < words) { d += bitCount(rows(base + j) & qBits(j)); j += 1 }
        if (d < need) return false
        w &= w - 1
      }
      k += 1
    }
    true
  }

  /** Emit S if it is a large-enough γ-quasi-clique; returns true if emitted. */
  private def checkOutput(s: Array[Int], sLen: Int): Boolean = {
    if (sLen < tauSize) return false
    setBits(qBits, s, 0, sLen)
    if (!qBitsValid(sLen)) return false
    sink(members(qBits, sLen))
    true
  }

  private def boundsOf(f: Miner.Frame): Bounds.Verdict = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    val dS = f.dS; val dExt = f.dExt
    var sumDS = 0; var dMinTotal = Int.MaxValue; var dMinS = Int.MaxValue
    var i = 0
    while (i < f.sLen) {
      val v = f.s(i)
      sumDS += dS(v)
      if (dS(v) + dExt(v) < dMinTotal) dMinTotal = dS(v) + dExt(v)
      if (dS(v) < dMinS) dMinS = dS(v)
      i += 1
    }
    val v = Bounds.compute(f.sLen, sumDS, dMinTotal, dMinS, f.hist, f.extLen, gamma, ceilG, quickCompat = !plus)
    if (timers ne null) timers.boundNs += System.nanoTime - t0
    v
  }

  // ------------------------------------------------------- Algorithm 2

  /** Iterative bound-based pruning. Returns true iff extending S (beyond S
    * itself) is pruned; S and ext are mutated in place (critical-vertex
    * moves grow S, Type-I pruning shrinks ext). Any mandated examination of
    * G(S) happens internally. S must be non-empty and f's state exact
    * (derived or computed). A false return is a fixpoint with |S| + |ext|
    * >= τ_size, where f's bitsets and all its degrees are exact.
    */
  private def iterativeBounding(f: Miner.Frame): Boolean = {
    val s = f.s; val dS = f.dS; val dExt = f.dExt
    var looping = true
    while (looping && f.extLen > 0) {
      // bounding never grows S ∪ ext, so nothing it could emit is large enough
      if (f.sLen + f.extLen < tauSize) return true
      boundsOf(f) match {
        case Bounds.PruneExtensions =>
          if (plus) checkOutput(s, f.sLen)
          return true
        case Bounds.PruneAll => return true
        case Bounds.Ok(us0, ls0) =>
          if (us0 < ls0) return true
          if (!f.extDegrees) fillExtDegrees(f)
          var us = us0; var ls = ls0
          // ---- critical-vertex pruning (P6), looped until none remain ----
          var critDone = false
          while (!critDone && f.extLen > 0) {
            val t0 = if (timers ne null) System.nanoTime else 0L
            val sLen = f.sLen
            val need = ceilG(sLen + ls - 1)
            // N_ext(v) of each critical v (Quick: of the first one only) is
            // appended to S in id order and unmarked in eBits, so a vertex
            // moves once; degrees are updated after the scan
            var end = sLen
            var i = 0
            while (i < sLen && (plus || end == sLen)) {
              val v = s(i)
              if (dExt(v) > 0 && dS(v) + dExt(v) == need) {
                val base = v * words; var k = 0
                while (k < words) {
                  var w = rows(base + k) & f.eBits(k)
                  f.eBits(k) &= ~w
                  while (w != 0) { s(end) = (k << 6) | numberOfTrailingZeros(w); end += 1; w &= w - 1 }
                  k += 1
                }
              }
              i += 1
            }
            if (timers ne null) timers.criticalNs += System.nanoTime - t0
            if (end == sLen) critDone = true
            else {
              // the paper examines G(S) before expanding it (missed by Quick)
              if (plus) checkOutput(s, sLen)
              f.sLen = end
              moveToS(f, sLen, end)
              if (f.extLen > 0) {
                boundsOf(f) match {
                  case Bounds.PruneExtensions =>
                    if (plus) checkOutput(s, f.sLen)
                    return true
                  case Bounds.PruneAll => return true
                  case Bounds.Ok(u2, l2) =>
                    if (u2 < l2) return true
                    us = u2; ls = l2
                }
              }
            }
          }
          if (f.extLen == 0) { looping = false }
          else {
            // ---- Type-II pruning (Theorems 4, 6, 8) ----
            var thm4i = false
            val sLen = f.sLen
            val needU = ceilG(sLen + us - 1); val needL = ceilG(sLen + ls - 1)
            var i = 0
            while (i < sLen) {
              val v = s(i); val ds = dS(v); val de = dExt(v)
              if (ds + de < ceilG(sLen - 1 + de)) return true   // Thm 4 (ii)
              if (ds + us < needU) return true                  // Thm 6
              if (ds + de < needL) return true                  // Thm 8
              if (de == 0 && ds < ceilG(sLen)) thm4i = true     // Thm 4 (i)
              i += 1
            }
            if (thm4i) {
              // extensions pruned but G(S) itself survives (Quick prunes it)
              if (plus) checkOutput(s, sLen)
              return true
            }
            // ---- Type-I pruning (Theorems 3, 5, 7), ext compacted in place ----
            var kept = 0; var nRemoved = 0
            i = 0
            while (i < f.extLen) {
              val u = f.ext(i); val ds = dS(u); val de = dExt(u)
              val pruned =
                ds + de < ceilG(sLen + de) ||  // Thm 3
                ds + us - 1 < needU ||         // Thm 5
                ds + de < needL                // Thm 7
              if (pruned) { f.eBits(u >>> 6) &= ~(1L << u); f.hist(ds) -= 1; removed(nRemoved) = u; nRemoved += 1 }
              else { f.ext(kept) = u; kept += 1 }
              i += 1
            }
            f.extLen = kept
            if (nRemoved == 0) looping = false // fixpoint (case C2)
            else dropRemoved(f, nRemoved)
          }
      }
    }
    if (f.extLen == 0) { checkOutput(s, f.sLen); true } else false
  }

  /** Copies S and ext into the scratch frame at `depth`. */
  private def load(depth: Int, s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Miner.Frame = {
    val f = frame(depth)
    s.copyToArray(f.s); f.sLen = s.length
    ext.copyToArray(f.ext); f.extLen = ext.length
    f
  }

  /** Test hook: `iterativeBounding` on buffers, from a full recompute of
    * their state, written back in place.
    */
  private[core] def iterativeBounding(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Boolean = {
    val f = load(0, s, ext)
    computeDegrees(f)
    val pruned = iterativeBounding(f)
    s.clear(); s ++= f.s.iterator.take(f.sLen)
    ext.clear(); ext ++= f.ext.iterator.take(f.extLen)
    pruned
  }

  // ------------------------------------------------- cover vertex (P7)

  /** Puts C_S(u) of the best cover vertex u in ext (Eq 9) into `cover` and
    * returns its size, or 0 if the rule is inapplicable for every u; ties
    * go to the first u in ext order. Requires f's d_S exact.
    */
  private def findCoverSet(f: Miner.Frame): Int = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    val dS = f.dS; val sBits = f.sBits
    val cg = ceilG(f.sLen)
    // the vertices v of S with d_S(v) < ⌈γ|S|⌉: u must be adjacent to all
    clear(low)
    var i = 0
    while (i < f.sLen) { val v = f.s(i); if (dS(v) < cg) low(v >>> 6) |= 1L << v; i += 1 }
    var bestLen = 0
    i = 0
    while (i < f.extLen) {
      val u = f.ext(i)
      if (dS(u) >= cg) {
        val ub = u * words
        var ok = true; var k = 0
        while (ok && k < words) { if ((low(k) & ~rows(ub + k)) != 0) ok = false; k += 1 }
        if (ok) {
          // N_ext(u) ∩ ⋂ N(v) over v in S \ N(u); stop once it is too small
          var c = 0
          k = 0
          while (k < words) { cand(k) = rows(ub + k) & f.eBits(k); c += bitCount(cand(k)); k += 1 }
          k = 0
          while (c > bestLen && k < words) {
            var w = sBits(k) & ~rows(ub + k)
            while (c > bestLen && w != 0) {
              val vb = ((k << 6) | numberOfTrailingZeros(w)) * words
              c = 0; var j = 0
              while (j < words) { cand(j) &= rows(vb + j); c += bitCount(cand(j)); j += 1 }
              w &= w - 1
            }
            k += 1
          }
          if (c > bestLen) { System.arraycopy(cand, 0, cover, 0, words); bestLen = c }
        }
      }
      i += 1
    }
    if (timers ne null) timers.coverNs += System.nanoTime - t0
    bestLen
  }

  /** Test hook: cover set with fresh degree state (null when inapplicable). */
  private[core] def coverSetFor(s: ArrayBuffer[Int], ext: ArrayBuffer[Int]): Array[Int] = {
    val f = load(0, s, ext)
    computeDegrees(f)
    val c = findCoverSet(f)
    if (c == 0) null else members(cover, c)
  }

  /** Reorders f.ext ascending by (d_S, d_ext), stably — Section 6.2's
    * lookahead-friendly order — with the cover set moved to the tail.
    * Returns the number of head vertices to examine. Requires f's state
    * exact, degrees of ext included.
    */
  private def orderExt(f: Miner.Frame): Int = {
    val ext = f.ext; val len = f.extLen
    var i = 0
    while (i < len) {
      val u = ext(i)
      keys(i) = (f.dS(u).toLong << 42) | (f.dExt(u).toLong << 21) | i
      extCopy(i) = u
      i += 1
    }
    java.util.Arrays.sort(keys, 0, len)
    i = 0
    while (i < len) { ext(i) = extCopy((keys(i) & 0x1fffff).toInt); i += 1 }
    if (findCoverSet(f) == 0) len
    else {
      var head = 0; var tail = 0
      i = 0
      while (i < len) {
        val u = ext(i)
        if (has(cover, u)) { extCopy(tail) = u; tail += 1 } else { ext(head) = u; head += 1 }
        i += 1
      }
      System.arraycopy(extCopy, 0, ext, head, tail)
      head
    }
  }

  /** Does the lookahead rule fire? G(S ∪ ext(from until extLen)), which
    * is f.rest, valid => output it.
    */
  private def lookahead(f: Miner.Frame, from: Int): Boolean = {
    val t0 = if (timers ne null) System.nanoTime else 0L
    System.arraycopy(f.rest, 0, qBits, 0, words)
    val m  = f.sLen + f.extLen - from
    val ok = qBitsValid(m)
    if (ok) sink(members(qBits, m))
    if (timers ne null) timers.lookaheadNs += System.nanoTime - t0
    ok
  }

  /** ext(from until to) filtered, in order, to the vertices within 2 hops
    * of v (diameter pruning, P1), written to `out`; returns their count.
    */
  private def diameterShrink(ext: Array[Int], from: Int, to: Int, v: Int, out: Array[Int]): Int = {
    val rv = v * words
    if (!has(reachKnown, v)) {
      System.arraycopy(rows, rv, reachRows, rv, words)
      val av = g.adj(v); var i = 0
      while (i < av.length) {
        val base = av(i) * words; var k = 0
        while (k < words) { reachRows(rv + k) |= rows(base + k); k += 1 }
        i += 1
      }
      reachKnown(v >>> 6) |= 1L << v
    }
    var len = 0
    var i = from
    while (i < to) {
      val u = ext(i)
      if ((reachRows(rv + (u >>> 6)) & (1L << u)) != 0) { out(len) = u; len += 1 }
      i += 1
    }
    len
  }

  /** Test hook: `diameterShrink` on a buffer. */
  private[core] def diameterShrink(ext: ArrayBuffer[Int], v: Int): ArrayBuffer[Int] = {
    val src = ext.toArray
    val out = new Array[Int](src.length)
    ArrayBuffer.from(out.iterator.take(diameterShrink(src, 0, src.length, v, out)))
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
           spawn: (Array[Int], Array[Int]) => Unit): Boolean = {
    computeDegrees(load(0, s0, ext0))
    search(0, spawnAt, spawn)
  }

  /** Mines from the S and ext held in frame `depth`, whose state is exact;
    * children go to frame `depth + 1`.
    */
  private def search(depth: Int, spawnAt: Int => Boolean, spawn: (Array[Int], Array[Int]) => Unit): Boolean = {
    val f = frame(depth)
    var qFound = false
    val nHead = orderExt(f)
    // orderExt only permutes ext, so sBits ∪ eBits is S ∪ ext
    var k = 0
    while (k < words) { f.rest(k) = f.sBits(k) | f.eBits(k); k += 1 }
    val c = frame(depth + 1)
    var examined = 0
    while (examined < nHead) {
      if (capped && (branches & 63) == 0 && System.nanoTime > deadlineNanos) throw new Miner.DeadlineExceeded
      branches += 1
      if (f.sLen + f.extLen - examined < tauSize) return qFound
      if (lookahead(f, examined)) return true
      val v = f.ext(examined)
      examined += 1
      f.rest(v >>> 6) &= ~(1L << v)
      c.extLen = diameterShrink(f.ext, examined, f.extLen, v, c.ext)
      System.arraycopy(f.s, 0, c.s, 0, f.sLen)
      c.s(f.sLen) = v
      c.sLen = f.sLen + 1
      if (c.extLen == 0) {
        // boundary case missed by the original Quick (may lose results)
        if (plus && checkOutput(c.s, c.sLen)) qFound = true
      } else if (c.sLen + c.extLen >= tauSize) {
        // (a smaller child could emit nothing: bounding only shrinks it)
        deriveChild(f, c, v)
        if (!iterativeBounding(c)) {
          if (spawnAt(depth)) {
            spawn(java.util.Arrays.copyOf(c.s, c.sLen), java.util.Arrays.copyOf(c.ext, c.extLen))
            checkOutput(c.s, c.sLen)
          } else if (search(depth + 1, spawnAt, spawn)) qFound = true
          else if (checkOutput(c.s, c.sLen)) qFound = true
        }
      }
    }
    qFound
  }
}
