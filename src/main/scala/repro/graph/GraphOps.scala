package repro.graph

/** Graph algorithms used by the miners and the task engine:
  * k-core peeling (pruning rule P2, and degeneracy for task features),
  * induced subgraphs, 2-hop neighborhoods (diameter pruning P1), and the
  * vertex-ID recoding that enables the degenerate cover-vertex rule (P7).
  */
object GraphOps {

  /** Vertices surviving k-core peeling (Batagelj–Zaversnik style O(|E|)
    * repeated deletion of vertices with degree < k). Returns a mask.
    *
    * A vertex of degree below k never survives, so only the others read
    * their arcs: each counts its degree among them, then the peel runs on
    * those counts. On sparse inputs most vertices are below k and cost one
    * degree lookup each.
    */
  def kCoreMask(g: LocalGraph, k: Int): Array[Boolean] = {
    val n = g.n
    val alive = new Array[Boolean](n)
    var v = 0
    while (v < n) { alive(v) = g.degree(v) >= k; v += 1 }
    val deg = new Array[Int](n)
    v = 0
    while (v < n) {
      if (alive(v)) {
        val a = g.adj(v); var d = 0; var i = 0
        while (i < a.length) { if (alive(a(i))) d += 1; i += 1 }
        deg(v) = d
      }
      v += 1
    }
    // a vertex is queued once, when it dies, so n slots suffice
    val queue = new Array[Int](n)
    var tail = 0
    v = 0
    while (v < n) { if (alive(v) && deg(v) < k) { alive(v) = false; queue(tail) = v; tail += 1 }; v += 1 }
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
    * where `oldIds(newId) = old id`; `oldIds` is `vs` itself, not a copy,
    * so the caller must not change `vs` afterwards. Every caller passes a
    * fresh array that nothing else holds (`kCoreSubgraph`, `recodeByCover`,
    * `TaskSpawn.egoTask`, `KernelExpand.expandSerial` and the engine's
    * round body).
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
    (new LocalGraph(adj), vs)
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

  /** Graph degeneracy, the "Core #" feature of Tables 1–2: the largest k
    * whose k-core is non-empty (0 for the empty graph). k-cores are nested,
    * so k is binary-searched over [0, maxDegree] in O(log maxDegree) peels.
    */
  def degeneracy(g: LocalGraph): Int = {
    var lo = 0; var hi = g.maxDegree
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (kCoreMask(g, mid).contains(true)) lo = mid else hi = mid - 1
    }
    lo
  }

  /** Vertices within 2 hops of v whose id is > `above`, ascending. With
    * `above` = v this is the candidate pool B_{>v}(v) an ego task pulls
    * (Algorithms 4, 6, 7); with −1 it is the whole 2-hop ball, v included
    * if it has a neighbour (a kernel's pool). `minDegree` drops vertices
    * pruned by Theorem 2 up front.
    */
  def twoHopAbove(g: LocalGraph, v: Int, above: Int, minDegree: Int): Array[Int] = {
    val seen = marks.get
    seen.begin(g.n)
    val out = Array.newBuilder[Int]
    def visit(w: Int): Unit =
      if (w > above && !seen.has(w) && g.degree(w) >= minDegree) { seen.put(w, 0); out += w }
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
