package repro.baselines

import org.apache.spark.SparkContext
import repro.graph.LocalGraph
import repro.gthinker.Engine

/** The three G-thinker applications of Table 4 — triangle counting (TC),
  * maximum clique finding (MCF) and subgraph matching (GM, here: counting
  * 4-cliques) — implemented as per-vertex compute tasks over a broadcast
  * graph, with the old-engine (hash placement, FIFO) vs redesigned-engine
  * (big-task-first, round-robin into 2p pulled slices) scheduling knob,
  * mirroring the G-thinker vs G-thinker+ columns.
  */
object GThinkerApps {

  /** Place per-vertex tasks on p workers with the engine's placement. Big =
    * high degree; the owner of a vertex task is the vertex.
    */
  private def placedVertices(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean) =
    Engine.place(sc, 0 until g.n, p, prioritizeBig, bigFrom = 0)(g.degree, v => v)

  private def run(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean)
                 (perVertex: (LocalGraph, Int) => Long): AppResult = {
    val t0 = System.nanoTime
    val bc = sc.broadcast(g)
    val total = placedVertices(sc, g, p, prioritizeBig).mapPartitions { it =>
      val graph = bc.value
      var s = 0L
      it.foreach(v => s += perVertex(graph, v))
      Iterator.single(s)
    }.fold(0L)(_ + _)
    bc.destroy()
    AppResult(total, (System.nanoTime - t0) / 1e6)
  }

  /** TC: each vertex v counts edges among its neighbors > v. */
  def triangleCount(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean = true): AppResult =
    run(sc, g, p, prioritizeBig) { (graph, v) =>
      val ns = graph.adj(v).filter(_ > v)
      var c = 0L; var i = 0
      while (i < ns.length) {
        var j = i + 1
        while (j < ns.length) { if (graph.hasEdge(ns(i), ns(j))) c += 1; j += 1 }
        i += 1
      }
      c
    }

  /** GM: count 4-cliques whose smallest vertex is v. */
  def fourCliqueCount(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean = true): AppResult =
    run(sc, g, p, prioritizeBig) { (graph, v) =>
      val ns = graph.adj(v).filter(_ > v)
      var c = 0L; var i = 0
      while (i < ns.length) {
        var j = i + 1
        while (j < ns.length) {
          if (graph.hasEdge(ns(i), ns(j))) {
            var k = j + 1
            while (k < ns.length) {
              if (graph.hasEdge(ns(i), ns(k)) && graph.hasEdge(ns(j), ns(k))) c += 1
              k += 1
            }
          }
          j += 1
        }
        i += 1
      }
      c
    }

  /** MCF: each vertex task branch-and-bounds the largest clique whose
    * smallest vertex is v; the global answer is the max over tasks.
    */
  def maxClique(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean = true): AppResult = {
    val t0 = System.nanoTime
    val bc = sc.broadcast(g)
    val best = placedVertices(sc, g, p, prioritizeBig).mapPartitions { it =>
      val graph = bc.value
      var localBest = 0
      def grow(size: Int, cand: Array[Int]): Unit = {
        if (size > localBest) localBest = size
        if (size + cand.length <= localBest) return
        var i = 0
        while (i < cand.length) {
          if (size + cand.length - i > localBest) {
            val v = cand(i)
            grow(size + 1, cand.drop(i + 1).filter(graph.hasEdge(v, _)))
          }
          i += 1
        }
      }
      it.foreach { v => grow(1, graph.adj(v).filter(_ > v)) }
      Iterator.single(localBest)
    }.fold(0)(math.max)
    bc.destroy()
    AppResult(best.toLong, (System.nanoTime - t0) / 1e6)
  }
}
