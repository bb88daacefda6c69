package repro.graph

import scala.collection.mutable

/** Graph algorithms used by the miners and the task engine:
  * k-core peeling (pruning rule P2), core decomposition (task features),
  * induced subgraphs, 2-hop neighborhoods (diameter pruning P1), and the
  * vertex-ID recoding that enables the degenerate cover-vertex rule (P7).
  */
object GraphOps {

  /** Vertices surviving k-core peeling (Batagelj–Zaversnik style O(|E|)
    * repeated deletion of vertices with degree < k). Returns a mask.
    */
  def kCoreMask(g: LocalGraph, k: Int): Array[Boolean] = {
    val alive = new Array[Boolean](g.n)
    java.util.Arrays.fill(alive, true)
    val deg = degrees(g)
    // a vertex is queued once, when it dies, so n slots suffice
    val queue = new Array[Int](g.n)
    var tail = 0
    var v = 0
    while (v < g.n) { if (deg(v) < k) { alive(v) = false; queue(tail) = v; tail += 1 }; v += 1 }
    var head = 0
    while (head < tail) {
      val u = queue(head); head += 1
      val a = g.adj(u); var i = 0
      while (i < a.length) {
        val w = a(i)
        if (alive(w)) { deg(w) -= 1; if (deg(w) < k) { alive(w) = false; queue(tail) = w; tail += 1 } }
        i += 1
      }
    }
    alive
  }

  /** Every vertex's degree, in a primitive loop (`Array.tabulate` boxes). */
  private def degrees(g: LocalGraph): Array[Int] = {
    val deg = new Array[Int](g.n)
    var v = 0
    while (v < g.n) { deg(v) = g.degree(v); v += 1 }
    deg
  }

  /** The indices set in `mask`, ascending. */
  def indicesOf(mask: Array[Boolean]): Array[Int] = {
    var c = 0; var i = 0
    while (i < mask.length) { if (mask(i)) c += 1; i += 1 }
    val out = new Array[Int](c)
    c = 0; i = 0
    while (i < mask.length) { if (mask(i)) { out(c) = i; c += 1 }; i += 1 }
    out
  }

  /** k-core as an induced subgraph with its old-id mapping. */
  def kCoreSubgraph(g: LocalGraph, k: Int): (LocalGraph, Array[Int]) =
    induced(g, indicesOf(kCoreMask(g, k)))

  /** Subgraph induced by `vs` (any order, no duplicates), recoded to
    * `0 until vs.length` in the order given. Returns (subgraph, oldIds)
    * where `oldIds(newId) = old id`.
    */
  def induced(g: LocalGraph, vs: Array[Int]): (LocalGraph, Array[Int]) = {
    val toNew = marks.get
    toNew.begin(g.n)
    var i = 0
    while (i < vs.length) { toNew.put(vs(i), i); i += 1 }
    val adj = new Array[Array[Int]](vs.length)
    i = 0
    while (i < vs.length) {
      val a = g.adj(vs(i))
      var d = 0; var j = 0
      while (j < a.length) { if (toNew.has(a(j))) d += 1; j += 1 }
      val arr = new Array[Int](d)
      d = 0; j = 0
      while (j < a.length) { if (toNew.has(a(j))) { arr(d) = toNew.value(a(j)); d += 1 }; j += 1 }
      java.util.Arrays.sort(arr)
      adj(i) = arr
      i += 1
    }
    (new LocalGraph(adj), vs.clone())
  }

  /** Vertex marks reused across calls on one thread, so `induced` and
    * `twoHopAbove` cost what their output costs, not O(g.n) per call: they
    * run once per task on the whole (broadcast) graph. Vertex v carries
    * `value(v)` in the current call iff `mark(v) == stamp`.
    */
  private final class Marks {
    private var mark  = Array.emptyIntArray
    private var stamp = 0
    var value = Array.emptyIntArray

    /** Starts a call over vertex ids below n, with every vertex unmarked. */
    def begin(n: Int): Unit = {
      if (mark.length < n || stamp == Int.MaxValue) {
        mark = new Array[Int](math.max(n, mark.length)); value = new Array[Int](mark.length); stamp = 0
      }
      stamp += 1
    }
    def has(v: Int): Boolean = mark(v) == stamp
    def put(v: Int, x: Int): Unit = { mark(v) = stamp; value(v) = x }
  }
  private val marks = ThreadLocal.withInitial[Marks](() => new Marks)

  /** Core number of every vertex (peeling with bucket queues); the maximum
    * is the graph's degeneracy — the "Core #" feature of Tables 1–2.
    */
  def coreNumbers(g: LocalGraph): Array[Int] = {
    val n = g.n
    if (n == 0) return Array.emptyIntArray
    val deg  = degrees(g)
    val maxD = g.maxDegree
    // bin sort by degree
    val bin = new Array[Int](maxD + 2)
    var v = 0
    while (v < n) { bin(deg(v)) += 1; v += 1 }
    var start = 0; var d = 0
    while (d <= maxD) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val pos  = new Array[Int](n)
    val vert = new Array[Int](n)
    v = 0
    while (v < n) { pos(v) = bin(deg(v)); vert(pos(v)) = v; bin(deg(v)) += 1; v += 1 }
    d = maxD
    while (d >= 1) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0
    val core = new Array[Int](n)
    var i = 0
    while (i < n) {
      val u = vert(i)
      core(u) = deg(u)
      val a = g.adj(u); var j = 0
      while (j < a.length) {
        val w = a(j)
        if (deg(w) > deg(u)) {
          val dw = deg(w); val pw = pos(w); val ps = bin(dw); val s = vert(ps)
          if (s != w) { vert(ps) = w; vert(pw) = s; pos(w) = ps; pos(s) = pw }
          bin(dw) += 1; deg(w) -= 1
        }
        j += 1
      }
      i += 1
    }
    core
  }

  /** Graph degeneracy = max core number (0 for empty). */
  def degeneracy(g: LocalGraph): Int = {
    val c = coreNumbers(g)
    if (c.isEmpty) 0 else c.max
  }

  /** Vertices within 2 hops of v (excluding v) whose id is > v — the
    * candidate pool B_{>v}(v) a spawned task pulls (Algorithms 4, 6, 7).
    * `minDegree` drops vertices pruned by Theorem 2 up front.
    */
  def twoHopAbove(g: LocalGraph, v: Int, minDegree: Int): Array[Int] = {
    val seen = marks.get
    seen.begin(g.n)
    val out = Array.newBuilder[Int]
    def visit(w: Int): Unit =
      if (w > v && !seen.has(w) && g.degree(w) >= minDegree) { seen.put(w, 0); out += w }
    val a = g.adj(v); var i = 0
    while (i < a.length) {
      val u = a(i)
      visit(u)
      val b = g.adj(u); var j = 0
      while (j < b.length) { visit(b(j)); j += 1 }
      i += 1
    }
    val arr = out.result()
    java.util.Arrays.sort(arr)
    arr
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

  /** ID recoding for the degenerate cover-vertex rule (P7, T6): the highest-
    * degree vertex (after any k-core pruning) becomes id 0, its neighbors get
    * the largest ids (they are enumerated last and pruned by the cover rule),
    * and the remaining vertices are sorted ascending by degree so lookahead
    * succeeds more often. Returns (recoded graph, oldIds).
    */
  def recodeByCover(g: LocalGraph): (LocalGraph, Array[Int]) = {
    if (g.n == 0) return (g, Array.emptyIntArray)
    var vmax = 0; var v = 1
    while (v < g.n) { if (g.degree(v) > g.degree(vmax)) vmax = v; v += 1 }
    val isNbr = new Array[Boolean](g.n)
    g.adj(vmax).foreach(isNbr(_) = true)
    val others = (0 until g.n).filter(u => u != vmax && !isNbr(u)).toArray
      .sortBy(g.degree)
    val nbrs = g.adj(vmax).sortBy(g.degree)
    val order = Array.ofDim[Int](g.n)
    order(0) = vmax
    System.arraycopy(others, 0, order, 1, others.length)
    System.arraycopy(nbrs, 0, order, 1 + others.length, nbrs.length)
    induced(g, order)
  }

  /** Per-task subgraph features of Tables 1–2. */
  final case class SubgraphFeatures(nV: Int, nE: Long, maxDeg: Int, avgDeg: Double, coreNum: Int)

  def features(g: LocalGraph): SubgraphFeatures =
    SubgraphFeatures(g.n, g.numEdges, g.maxDegree, g.avgDegree, degeneracy(g))
}
