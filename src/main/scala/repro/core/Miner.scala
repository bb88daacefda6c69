package repro.core

import repro.graph.LocalGraph
import scala.collection.mutable.ArrayBuffer

/** Quick+ or the original Quick baseline.
  *
  * Quick+ (Section 6) improves Quick in three ways:
  *  - all critical vertices are moved per bounding iteration (Quick: one);
  *  - boundary cases of the U_S / L_S computation trigger Type-II pruning
  *    (Quick: falls back to a loose bound);
  *  - G(S) itself is examined where only S's *extensions* are pruned.
  *    The published Quick+ does so in four places. Two of them can never
  *    emit here, given its own boundary prune (DESIGN.md, lemmas (i) and
  *    (ii)): before a critical-vertex move, and on Theorem 4 Condition (i).
  *    The two live ones are `Bounds.PruneExtensions` and ext(S') = ∅ after
  *    diameter shrinking; Quick lacks them and so can miss maximal results.
  *
  * `extraPrunes` adds two sound prunes that the paper's P1–P7 lack
  * (DESIGN.md, "Rules A and B"): rule A, a common-neighbour bound on every
  * pair of members that generalises P1, and rule B, a non-neighbour budget
  * on the members of S (the upper-bound dual of P6). They cut search nodes,
  * not results: the maximal sets are the same.
  *
  * The only configurations are the three presets of `object MinerConfig`.
  */
sealed abstract class MinerConfig(val isQuickPlus: Boolean, val extraPrunes: Boolean) extends Product with Serializable

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
    * from its parent's frame, and `iterativeBounding` keeps d_S, the
    * histogram and d_ext of S exact as it moves and prunes vertices. d_ext
    * of the ext vertices is exact only while `extDegrees` is set: it is
    * counted right before a rule or a move reads it. `rest` is S ∪
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
  /** Quick+ with rules A and B: the default of every miner. */
  case object quickPlus      extends MinerConfig(isQuickPlus = true, extraPrunes = true)
  /** Quick+ as published (P1–P7 only), for Tables 15 and 16. */
  case object quickPlusPaper extends MinerConfig(isQuickPlus = true, extraPrunes = false)
  /** The original Quick, as published (Table 15): one critical vertex per
    * bounding round, no boundary-case prunes, no G(S) checks and (in
    * `QuickPlus.mineSerial`) no cover-vertex recoding, so it can run slower
    * and miss results.
    */
  case object quick          extends MinerConfig(isQuickPlus = false, extraPrunes = false)
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
  * ext, the validity checks, the cover set (P7) and the diameter shrink (P1
  * or rule A) are word-parallel ANDs, ORs and popcounts. Each search depth
  * keeps one frame of primitive arrays, reused across siblings: S, ext,
  * their bitsets and their degrees, derived from the parent's frame. So the
  * search allocates only what it emits or spawns, and only the task root
  * computes its degrees from scratch.
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
  require(tauSize >= 1, s"tauSize must be at least 1, got $tauSize")
  // orderExt packs (d_S, d_ext, position) into one Long, 21 bits each
  require(g.n < (1 << 21), s"task graph too large for the miner: ${g.n} vertices")
  import java.lang.Long.{bitCount, numberOfTrailingZeros}

  private val plus  = config.isQuickPlus
  private val extra = config.extraPrunes

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

  // rule A: a member pair of any result shares at least pairNon common
  // neighbours if non-adjacent and pairAdj if adjacent; P1 alone is 1 and 0
  private val minF    = if (extra) QuasiClique.minPairBound(gamma, tauSize, n) else 1
  private val pairNon = math.max(1, minF)
  private val pairAdj = math.max(0, minF - 2)

  // pair row of v: the w that may share a result with v, laid out like rows
  // and filled the first time v is asked for (`pairRow`); pairKnown marks
  // the filled ones
  private val pairRows  = new Array[Long](n * words)
  private val pairKnown = new Array[Long](words)

  // scratch bitsets: a vertex set under test, a cover-set candidate, the
  // best cover set, the low-d_S vertices of S and rule B's common
  // neighbours of the saturated vertices of S
  private val qBits = new Array[Long](words)
  private val cand  = new Array[Long](words)
  private val cover = new Array[Long](words)
  private val low   = new Array[Long](words)
  private val sat   = new Array[Long](words)
  // scratch for ordering ext
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

  /** Children derived so far (tests compare the presets by it). */
  private[core] var derived = 0L

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

  /** |N(u) ∩ N(w)| by popcount over both rows. */
  private def common(u: Int, w: Int): Int = {
    val bu = u * words; val bw = w * words; var d = 0; var k = 0
    while (k < words) { d += bitCount(rows(bu + k) & rows(bw + k)); k += 1 }
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
    * pair row cached) is rest ∧ ¬S ∧ pair(v), d_S of a vertex gains one if
    * it is v's neighbour, the histogram counts ext' afresh, and d_ext is
    * counted for S ∪ {v} only.
    */
  private def deriveChild(f: Miner.Frame, c: Miner.Frame, v: Int): Unit = {
    val rv = v * words
    var k = 0
    while (k < words) {
      c.sBits(k) = f.sBits(k)
      c.eBits(k) = f.rest(k) & ~f.sBits(k) & pairRows(rv + k)
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

  /** d_ext of vs(0 until len) by popcount: S after Type-I removals, ext
    * right before a rule or a move reads it.
    */
  private def countDExt(f: Miner.Frame, vs: Array[Int], len: Int): Unit = {
    var i = 0
    while (i < len) { val x = vs(i); f.dExt(x) = degreeInto(x, f.eBits); i += 1 }
  }

  private def fillExtDegrees(f: Miner.Frame): Unit = { countDExt(f, f.ext, f.extLen); f.extDegrees = true }

  /** A Type-I removal: u leaves eBits and its histogram bin; the caller
    * compacts f.ext and recounts d_ext.
    */
  @inline private def dropFromExt(f: Miner.Frame, u: Int): Unit = {
    f.eBits(u >>> 6) &= ~(1L << u); f.hist(f.dS(u)) -= 1
  }

  /** The critical vertices s(from until to), already cleared from eBits,
    * join S: ext drops them, order kept, and each moved vertex's neighbours
    * in S ∪ ext gain one d_S and lose one d_ext. A moved vertex leaves its
    * histogram bin and a neighbour still in ext moves up one bin; the bins
    * (from, to], new with the larger S, start empty. Needs d_ext of ext
    * filled, since the moved vertices keep theirs.
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
    if (checkState) {
      // lemma (ii): the S before the move, s(0 until from), fails the degree test
      setBits(qBits, f.s, 0, from)
      if (qBitsValid(from)) throw new IllegalStateException(s"G(S) passes the degree test at a move (S=${f.s.take(from).toSeq})")
      assertExact(f)
    }
  }

  /** Checked mode: f's bitsets, d_S, d_ext (of ext only once filled) and
    * histogram bins 0..|S| equal those of a full recompute from its arrays.
    * Every state a bounding pass reads passes through here first, so lemma
    * (i) is asserted here too.
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
    // lemma (i): if Theorem 4 (i) holds for a member of S, Bounds prunes the extensions
    if ((0 until f.sLen).exists(j => f.dExt(f.s(j)) == 0 && f.dS(f.s(j)) < ceilG(f.sLen)) &&
        boundsOf(f) != Bounds.PruneExtensions)
      throw new IllegalStateException(s"Theorem 4 (i) holds but Bounds kept the extensions (S=${f.s.take(f.sLen).toSeq})")
  }

  /** Definition 1 for the m vertices in `qBits`, by popcount degrees
    * alone: with γ >= 0.5 the degree test implies connectivity. Each member
    * has at least ⌈γ(m − 1)⌉ >= ⌈(m − 1)/2⌉ neighbours in the set (the
    * table's 1e-9 guard keeps this). So two non-adjacent members have at
    * least m − 1 neighbours between them among the other m − 2 and share
    * one: the set has diameter <= 2 (Pei, Jiang & Zhang, KDD 2005).
    * m >= 1 at every call: the output and lookahead checks test sets of at
    * least τ_size >= 1 vertices, and checked mode a non-empty S.
    */
  private def qBitsValid(m: Int): Boolean = {
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
    *
    * d_ext of ext is counted only where it is read: before the first
    * critical vertex leaves eBits, and before Theorems 3 and 7. So the
    * Type-I pass runs the rules that read d_S alone first, and a child they
    * shrink below τ_size dies without counting it.
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
        case Bounds.Ok(us, ls) =>
          if (us < ls) return true
          // ---- critical-vertex pruning (P6); after a move, bound again ----
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
              // the moved vertices keep their d_ext: count it while eBits
              // is still ext
              if (!f.extDegrees) fillExtDegrees(f)
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
          if (end > sLen) {
            // the published Quick+ examines G(S) here; it never passes (lemma (ii))
            f.sLen = end
            moveToS(f, sLen, end)
          } else {
            // ---- Type-II pruning (Theorems 4 (ii), 6, 8); Theorem 4 (i)
            // never holds here, as Bounds has pruned then (lemma (i)) ----
            var saturated = false
            val needU = ceilG(sLen + us - 1); val needL = ceilG(sLen + ls - 1)
            i = 0
            while (i < sLen) {
              val v = s(i); val ds = dS(v); val de = dExt(v)
              if (ds + de < ceilG(sLen - 1 + de)) return true   // Thm 4 (ii)
              if (ds + us < needU) return true                  // Thm 6
              if (ds + de < needL) return true                  // Thm 8
              if (extra && ds + us == needU) {
                // rule B: v already has the B(|S| + U_S) non-neighbours in S
                // that a result may give it, so every extension is v's
                // neighbour (one more non-neighbour is Thm 6)
                val base = v * words; var k = 0
                if (saturated) while (k < words) { sat(k) &= rows(base + k); k += 1 }
                else { System.arraycopy(rows, base, sat, 0, words); saturated = true }
              }
              i += 1
            }
            // ---- Type-I pruning, ext compacted in place: first the rules
            // that read d_S alone (Theorem 5, rule B) ----
            val extLen0 = f.extLen
            var kept = 0
            i = 0
            while (i < extLen0) {
              val u = f.ext(i)
              if (dS(u) + us - 1 < needU ||      // Thm 5
                  saturated && !has(sat, u))     // rule B
                dropFromExt(f, u)
              else { f.ext(kept) = u; kept += 1 }
              i += 1
            }
            f.extLen = kept
            // the next pass's size check, before d_ext is counted
            if (sLen + kept < tauSize) return true
            // ---- then Theorems 3 and 7, which read d_ext of ext ----
            if (!f.extDegrees || kept < extLen0) fillExtDegrees(f)
            val extLen1 = kept
            kept = 0
            i = 0
            while (i < extLen1) {
              val u = f.ext(i); val ds = dS(u); val de = dExt(u)
              if (ds + de < ceilG(sLen + de) ||  // Thm 3
                  ds + de < needL)               // Thm 7
                dropFromExt(f, u)
              else { f.ext(kept) = u; kept += 1 }
              i += 1
            }
            f.extLen = kept
            if (kept < extLen0) {
              // one popcount per member of S instead of one update per
              // removal; d_ext of ext is stale if the second rules removed
              countDExt(f, s, sLen)
              f.extDegrees = kept == extLen1
            } else looping = false // fixpoint (case C2)
            if (checkState) assertExact(f)
          }
      }
    }
    if (f.extLen == 0) { checkOutput(s, f.sLen); true }
    else {
      if (checkState && !f.extDegrees) throw new IllegalStateException("unpruned child without d_ext of ext")
      false
    }
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

  /** The offset of v's pair row in `pairRows`, filled on the first call:
    * the w that share at least pairAdj common neighbours with v if adjacent
    * to it and pairNon if not (rule A). It starts as v's 2-hop reach (its
    * row OR its neighbours' rows), which is the whole pair row under P1
    * alone (thresholds 0 and 1); otherwise each 2-hop vertex pays one
    * popcount.
    */
  private def pairRow(v: Int): Int = {
    val rv = v * words
    if (!has(pairKnown, v)) {
      System.arraycopy(rows, rv, pairRows, rv, words)
      val av = g.adj(v); var i = 0
      while (i < av.length) {
        val base = av(i) * words; var k = 0
        while (k < words) { pairRows(rv + k) |= rows(base + k); k += 1 }
        i += 1
      }
      if (pairNon > 1 || pairAdj > 0) {
        var k = 0
        while (k < words) {
          var w = pairRows(rv + k)
          while (w != 0) {
            val bit = w & -w
            val need = if ((rows(rv + k) & bit) != 0) pairAdj else pairNon
            if (common(v, (k << 6) | numberOfTrailingZeros(w)) < need) pairRows(rv + k) &= ~bit
            w ^= bit
          }
          k += 1
        }
      }
      pairKnown(v >>> 6) |= 1L << v
    }
    rv
  }

  /** ext(from until to) filtered, in order, to v's pair row (diameter
    * pruning, P1, or rule A), written to `out` (which may be `ext` itself
    * when from = 0); returns their count.
    */
  private def diameterShrink(ext: Array[Int], from: Int, to: Int, v: Int, out: Array[Int]): Int = {
    val rv = pairRow(v)
    var len = 0
    var i = from
    while (i < to) {
      val u = ext(i)
      if ((pairRows(rv + (u >>> 6)) & (1L << u)) != 0) { out(len) = u; len += 1 }
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
    val f = load(0, s0, ext0)
    // rule A at the task root: ext0 keeps the pair rows of all of S0
    if (extra) { var i = 0; while (i < f.sLen) { f.extLen = diameterShrink(f.ext, 0, f.extLen, f.s(i), f.ext); i += 1 } }
    computeDegrees(f)
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
        derived += 1
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
