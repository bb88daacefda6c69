package repro.kernel

import org.apache.spark.SparkContext
import repro.core._
import repro.graph.{GraphOps, LocalGraph}
import repro.gthinker.{Engine, EngineConfig, Mode, QCTask}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** The kernel-expansion baseline of Sanei-Mehri et al. [31] (Tables 9 and
  * 11): first mine γ'-quasi-cliques (γ' > γ, faster), keep the top-k'
  * largest maximal ones as "kernels", then expand each kernel to
  * γ-quasi-cliques and return the top-k largest maximal results.
  *
  * As the paper observes, this is approximate: it can miss maximal results
  * (expansion only looks around kernels) and is not guaranteed to return
  * the true top-k. Both behaviours are asserted in tests.
  */
object KernelExpand {

  final case class KernelOutcome(
      topK: Seq[Array[Int]],
      numResults: Int,
      numMaximal: Int,
      millis: Double,
      numKernels: Int)

  /** Candidate pool for expanding kernel S: vertices (any id) within 2 hops
    * of EVERY member of S (Theorem 1), minus S itself.
    */
  private[kernel] def candidatePool(g: LocalGraph, s: Array[Int]): Array[Int] = {
    require(s.nonEmpty)
    var pool: mutable.Set[Int] = null
    for (v <- s) {
      val b = new mutable.HashSet[Int]
      val a = g.adj(v)
      var i = 0
      while (i < a.length) {
        val u = a(i); b += u
        val au = g.adj(u); var j = 0
        while (j < au.length) { b += au(j); j += 1 }
        i += 1
      }
      pool = if (pool == null) b else pool.filter(b.contains)
    }
    s.foreach(pool -= _)
    val arr = pool.toArray
    java.util.Arrays.sort(arr)
    arr
  }

  /** The k-core of `g` for (γ, τ_size) with its ids in `g`, and the map of
    * a kernel into core ids — None unless every kernel vertex survives (they
    * always do: a kernel sits in a γ'-QC with γ' > γ).
    */
  private def kCore(g: LocalGraph, gamma: Double, tauSize: Int): (MiningGraph, Array[Int] => Option[Array[Int]]) = {
    val mg = TaskSpawn.prelude(g, gamma, tauSize, recode = false)
    val toCore = Array.fill(g.n)(-1)
    mg.ids.indices.foreach(i => toCore(mg.ids(i)) = i)
    (mg, kernel => Some(kernel.map(toCore)).filter(_.forall(_ >= 0)))
  }

  /** Serial [31] pipeline (Table 9). `gammaP` (γ') and `kPrime` (k') pick the
    * kernels; `gamma`/`k` shape the final answer; `tauSize` thresholds both
    * phases as in the paper's runs.
    */
  def topKSerial(g: LocalGraph, gammaP: Double, kPrime: Int,
                 gamma: Double, k: Int, tauSize: Int): KernelOutcome = {
    val t0 = System.nanoTime
    // phase 1: kernels = top-k' largest maximal γ'-quasi-cliques
    val kernels = QuickPlus.mineSerial(g, gammaP, tauSize).maximal
      .sortBy(-_.length).take(kPrime)
    // phase 2: expand each kernel under γ over the k-core-pruned graph
    val (MiningGraph(_, gK, idsK, _), toCore) = kCore(g, gamma, tauSize)
    val out = ArrayBuffer.empty[Array[Int]]
    for (kernel <- kernels) {
      toCore(kernel).foreach { sNew =>
        val ext = candidatePool(gK, sNew)
        val verts = sNew ++ ext
        val (sub, oldIds) = GraphOps.induced(gK, verts)
        val miner = new Miner(sub, gamma, tauSize,
          arr => { out += QuasiClique.canon(arr.map(x => idsK(oldIds(x)))); () })
        miner.recursiveMine(ArrayBuffer.from(0 until sNew.length),
                            ArrayBuffer.from(sNew.length until verts.length))
      }
      out += QuasiClique.canon(kernel) // the kernel itself is a γ-QC (γ' > γ)
    }
    val maximal = Maximality.filterMaximal(out.toSeq)
    val topK = maximal.sortBy(-_.length).take(k)
    KernelOutcome(topK, out.length, maximal.size, (System.nanoTime - t0) / 1e6, kernels.size)
  }

  /** Top-k largest maximal CLIQUES via Bron–Kerbosch with pivoting over the
    * k-core-pruned graph — the revised MCF program of the Table 11 study.
    * Branches that cannot beat the k-th best size are pruned, so this stays
    * tractable on dense regions (it may drop equal-size ties, which is fine
    * for kernel selection).
    */
  def topKCliqueKernels(g: LocalGraph, k: Int, coreK: Int): Seq[Array[Int]] = {
    val (gK, idsK) = GraphOps.kCoreSubgraph(g, coreK)
    val best = mutable.PriorityQueue.empty[Array[Int]](Ordering.by(a => -a.length))
    def bound: Int = if (best.size < k) 0 else best.head.length
    def bk(r: List[Int], rSize: Int, p0: mutable.Set[Int], x0: mutable.Set[Int]): Unit = {
      if (rSize + p0.size <= bound) return // cannot beat the k-th best
      if (p0.isEmpty && x0.isEmpty) {
        best += r.toArray.sorted
        if (best.size > k) best.dequeue()
        return
      }
      if (p0.isEmpty) return
      val pivot = (p0.iterator ++ x0.iterator).maxBy(gK.degree)
      val cand  = p0.filterNot(gK.hasEdge(pivot, _)).toArray
      for (v <- cand) {
        val nv = gK.adj(v)
        bk(v :: r, rSize + 1,
           p0.filter(u => java.util.Arrays.binarySearch(nv, u) >= 0),
           x0.filter(u => java.util.Arrays.binarySearch(nv, u) >= 0))
        p0 -= v; x0 += v
      }
    }
    if (gK.n > 0) bk(Nil, 0, mutable.Set.from(0 until gK.n), mutable.Set.empty)
    best.dequeueAll.toSeq.sortBy((a: Array[Int]) => -a.length).map(_.map(idsK))
  }

  /** Kernel expansion ON the G-thinker engine (Table 11): each kernel
    * becomes an initial task loaded into the global queue, pulling ALL ids
    * around it (no id-order restriction, as the paper notes is required for
    * maximality).
    */
  def expandOnEngine(sc: SparkContext, g: LocalGraph, kernels: Seq[Array[Int]],
                     gamma: Double, tauSize: Int, mode: Mode,
                     conf: EngineConfig, k: Int): KernelOutcome = {
    val t0 = System.nanoTime
    val (MiningGraph(_, gK, idsK, _), toCore) = kCore(g, gamma, tauSize)
    val tasks = kernels.zipWithIndex.flatMap { case (kernel, i) =>
      toCore(kernel).flatMap { sNew =>
        val ext = candidatePool(gK, sNew)
        if (ext.nonEmpty || sNew.length >= tauSize) Some(QCTask(i, sNew, ext)) else None
      }
    }.toArray
    val res = Engine.runFromTasks(sc, gK, idsK, tasks, gamma, tauSize, mode, conf)
    val all = res.maximal ++ kernels.map(QuasiClique.canon)
    val maximal = Maximality.filterMaximal(all)
    val topK = maximal.sortBy(-_.length).take(k)
    KernelOutcome(topK, res.numCandidates.toInt + kernels.size, maximal.size,
      (System.nanoTime - t0) / 1e6, kernels.size)
  }
}
