package repro.baselines

import org.apache.spark.{SparkContext, TaskContext}
import org.apache.spark.broadcast.Broadcast
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

  /** One Spark job: the app's partition body (a named class, as in every
    * engine job; see `Engine`) runs on the placed vertex tasks, and the
    * driver reduces the per-partition values.
    */
  private def run(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean)
                 (body: Broadcast[LocalGraph] => VertexTasks, reduce: (Long, Long) => Long): AppResult = {
    val t0 = System.nanoTime
    val bc = sc.broadcast(g)
    val value = sc.runJob(placedVertices(sc, g, p, prioritizeBig), body(bc)).reduce(reduce)
    bc.destroy()
    AppResult(value, (System.nanoTime - t0) / 1e6)
  }

  /** TC: each vertex v counts edges among its neighbors > v. */
  def triangleCount(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean = true): AppResult =
    run(sc, g, p, prioritizeBig)(new TriangleTasks(_), _ + _)

  /** GM: count 4-cliques whose smallest vertex is v. */
  def fourCliqueCount(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean = true): AppResult =
    run(sc, g, p, prioritizeBig)(new FourCliqueTasks(_), _ + _)

  /** MCF: each vertex task branch-and-bounds the largest clique whose
    * smallest vertex is v; the global answer is the max over tasks.
    */
  def maxClique(sc: SparkContext, g: LocalGraph, p: Int, prioritizeBig: Boolean = true): AppResult =
    run(sc, g, p, prioritizeBig)(new MaxCliqueTasks(_), math.max)
}

/** One app's partition body: the value of the partition's vertex tasks. */
private abstract class VertexTasks(bc: Broadcast[LocalGraph])
    extends ((TaskContext, Iterator[Int]) => Long) with Serializable {
  final def apply(ctx: TaskContext, vertices: Iterator[Int]): Long = value(bc.value, vertices)
  protected def value(graph: LocalGraph, vertices: Iterator[Int]): Long
}

/** `GThinkerApps.triangleCount`'s partition body. */
private final class TriangleTasks(bc: Broadcast[LocalGraph]) extends VertexTasks(bc) {
  protected def value(graph: LocalGraph, vertices: Iterator[Int]): Long = {
    var c = 0L
    vertices.foreach { v =>
      val ns = graph.adj(v).filter(_ > v)
      var i = 0
      while (i < ns.length) {
        var j = i + 1
        while (j < ns.length) { if (graph.hasEdge(ns(i), ns(j))) c += 1; j += 1 }
        i += 1
      }
    }
    c
  }
}

/** `GThinkerApps.fourCliqueCount`'s partition body. */
private final class FourCliqueTasks(bc: Broadcast[LocalGraph]) extends VertexTasks(bc) {
  protected def value(graph: LocalGraph, vertices: Iterator[Int]): Long = {
    var c = 0L
    vertices.foreach { v =>
      val ns = graph.adj(v).filter(_ > v)
      var i = 0
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
    }
    c
  }
}

/** `GThinkerApps.maxClique`'s partition body: the largest clique its tasks found. */
private final class MaxCliqueTasks(bc: Broadcast[LocalGraph]) extends VertexTasks(bc) {
  protected def value(graph: LocalGraph, vertices: Iterator[Int]): Long = {
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
    vertices.foreach { v => grow(1, graph.adj(v).filter(_ > v)) }
    localBest
  }
}
