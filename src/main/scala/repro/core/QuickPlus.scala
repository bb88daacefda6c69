package repro.core

import repro.graph.{GraphOps, LocalGraph}
import scala.collection.mutable.ArrayBuffer

/** A k-core-pruned (and optionally cover-recoded) mining graph: vertex v of
  * `graph` is vertex `ids(v)` of the input graph, and ego tasks are spawned
  * from the vertices below `spawnUpper`.
  */
final case class MiningGraph(k: Int, graph: LocalGraph, ids: Array[Int], spawnUpper: Int)

/** Task spawning shared by the serial miners and the G-thinker engine:
  * the prelude that prepares the graph, and Algorithms 4, 6 and 7 — the
  * k-core-pruned 2-hop ego network of a vertex.
  */
object TaskSpawn {

  /** k-core prune `g` for (γ, τ_size) (P2/T1), then optionally recode ids
    * for the degenerate cover rule (P7/T6).
    */
  def prelude(g: LocalGraph, gamma: Double, tauSize: Int, recode: Boolean): MiningGraph = {
    require(tauSize >= 1, s"tauSize must be at least 1, got $tauSize")
    require(gamma >= 0.5 && gamma <= 1.0, s"gamma must be in [0.5, 1], got $gamma")
    val k = QuasiClique.ceilGamma(gamma, tauSize - 1)
    val (gK, idsK) = GraphOps.kCoreSubgraph(g, k)
    if (!recode || gK.n == 0) MiningGraph(k, gK, idsK, gK.n)
    else {
      val (gm, ids) = GraphOps.recodeByCover(gK)
      // Tasks spawned from N(v_max) (the tail id block) can only find
      // quasi-cliques inside N(v_max), which v_max itself extends — skip.
      MiningGraph(k, gm, ids.map(idsK), gm.n - gm.degree(0))
    }
  }

  /** The task subgraph spawned from `v`: induced by {v} ∪ {u ∈ B(v) : u > v,
    * d(u) >= k}, shrunk to its k-core. Returns None when v itself is pruned
    * (degree < k or peeled away). In the Some case the root v is vertex 0 of
    * the returned subgraph and `oldIds` maps back to `g`'s ids.
    */
  def egoTask(g: LocalGraph, v: Int, k: Int): Option[(LocalGraph, Array[Int])] = {
    if (g.degree(v) < k) return None
    val pool = GraphOps.twoHopAbove(g, v, k)
    if (pool.length + 1 < k + 1) return None
    val verts = new Array[Int](pool.length + 1)
    verts(0) = v
    System.arraycopy(pool, 0, verts, 1, pool.length)
    val (sub, oldIds) = GraphOps.induced(g, verts)
    val mask = GraphOps.kCoreMask(sub, k)
    if (!mask(0)) return None
    val keep = GraphOps.indicesOf(mask) // ascending, so root stays first
    val (core, coreIds) = GraphOps.induced(sub, keep)
    Some((core, coreIds.map(oldIds)))
  }
}

/** One serial mining outcome: all emitted candidate sets (original vertex
  * ids), the maximal ones after post-processing, and timing. Phase times
  * are in the `PhaseTimers` the caller passed, if any.
  */
final case class MineOutcome(
    candidates: Seq[Array[Int]],
    maximal: Seq[Array[Int]],
    mineMillis: Double,
    postMillis: Double,
    timedOut: Boolean = false) {
  def numResults: Int = candidates.size
  def numMaximal: Int = maximal.size
}

/** Serial drivers for Quick+ (and, via config, the original Quick).
  *
  * `mineSerial` is the single-threaded reference used by Table 15 and by
  * every correctness test: the shared `TaskSpawn.prelude` (k-core, optional
  * recoding, which lets us skip spawning from N(v_max) entirely), then each
  * per-vertex ego task is mined with Algorithm 3 and non-maximal outputs are
  * post-processed away.
  */
object QuickPlus {

  /** Mines all maximal γ-quasi-cliques of `g` with at least `tauSize`
    * vertices. `timers`, when given, accumulates Table 16's phase times;
    * by default no phase is timed, so the search does not read the clock
    * per step. `capMillis` bounds the wall time: the search reads the
    * clock on every 64th branch, and a run that reaches the cap stops and
    * returns what it found with `timedOut` set.
    */
  def mineSerial(
      g: LocalGraph,
      gamma: Double,
      tauSize: Int,
      config: MinerConfig = MinerConfig.quickPlus,
      recode: Boolean = true,
      timers: PhaseTimers = null,
      capMillis: Long = Long.MaxValue): MineOutcome = {
    val t0 = System.nanoTime
    val deadline = if (capMillis == Long.MaxValue) Long.MaxValue else t0 + capMillis * 1000000L
    val MiningGraph(k, gm, ids, spawnUpper) = TaskSpawn.prelude(g, gamma, tauSize, recode)

    val out = ArrayBuffer.empty[Array[Int]]
    var timedOut = false
    var v = 0
    while (v < spawnUpper && !timedOut) {
      TaskSpawn.egoTask(gm, v, k) match {
        case Some((task, taskIds)) =>
          val miner = new Miner(task, gamma, tauSize,
            arr => out += QuasiClique.canon(arr.map(x => ids(taskIds(x)))),
            config, timers, deadline)
          try miner.recursiveMine(ArrayBuffer(0), ArrayBuffer.from(1 until task.n))
          catch { case _: Miner.DeadlineExceeded => timedOut = true }
        case None => ()
      }
      v += 1
    }
    val t1 = System.nanoTime
    val maximal = Maximality.filterMaximal(out.toSeq)
    val t2 = System.nanoTime
    MineOutcome(out.toSeq, maximal, (t1 - t0) / 1e6, (t2 - t1) / 1e6, timedOut)
  }
}

/** The original Quick baseline: one critical vertex per bounding round, no
  * boundary-case prunes, and the missing G(S) checks — so it can both run
  * slower and miss results (Table 15). It also lacks the degenerate
  * cover-vertex recoding.
  */
object Quick {
  def mineSerial(g: LocalGraph, gamma: Double, tauSize: Int,
                 timers: PhaseTimers = null,
                 capMillis: Long = Long.MaxValue): MineOutcome =
    QuickPlus.mineSerial(g, gamma, tauSize, MinerConfig.quick, recode = false, timers, capMillis)
}
