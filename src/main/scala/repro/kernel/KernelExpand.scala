package repro.kernel

import org.apache.spark.SparkContext
import repro.core._
import repro.graph.{GraphOps, LocalGraph}
import repro.gthinker.{Engine, EngineConfig, Mode, QCTask}
import scala.collection.mutable.ArrayBuffer

/** The kernel-expansion baseline of Sanei-Mehri et al. [31] (Tables 9 and
  * 11): first mine γ'-quasi-cliques (γ' > γ, faster), keep the top-k'
  * largest maximal ones as "kernels", then expand each kernel to
  * γ-quasi-cliques and return the top-k largest maximal results. Table 11's
  * kernels are the top-k largest cliques, i.e. γ' = 1.
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
      numKernels: Int,
      numTasks: Int)

  /** The top-k' kernels: the first `kPrime` maximal γ'-quasi-cliques of at
    * least `tauP` vertices that Quick+ returns, which come sorted by size
    * descending, then lexicographically (so equal-size ties go to the
    * lexicographically smallest).
    */
  def kernels(g: LocalGraph, gammaP: Double, kPrime: Int, tauP: Int): Seq[Array[Int]] =
    QuickPlus.mineSerial(g, gammaP, tauP).maximal.take(kPrime)

  /** Candidate pool for expanding kernel S: vertices (any id) within 2 hops
    * of EVERY member of S (Theorem 1), minus S itself.
    */
  private[kernel] def candidatePool(g: LocalGraph, s: Array[Int]): Array[Int] = {
    def ball(v: Int) = GraphOps.twoHopAbove(g, v, -1, 0)
    val members = s.sorted
    s.iterator.drop(1).foldLeft(ball(s(0))) { (pool, v) =>
      val b = ball(v)
      pool.filter(java.util.Arrays.binarySearch(b, _) >= 0)
    }.filter(java.util.Arrays.binarySearch(members, _) < 0)
  }

  /** The expansion tasks of `kernels` under (γ, τ_size): the k-core of `g`
    * for (γ, τ_size) (not recoded, so its ids ascend with `g`'s), and one
    * task ⟨S, ext⟩ in core ids per kernel, with S the kernel and ext its
    * candidate pool, kept if ext is non-empty or S alone is large enough.
    * A kernel with a vertex outside the k-core gets no task (this happens:
    * Table 11 expands cliques at τ_size above their size); it is still a
    * result, as every kernel is.
    */
  private[kernel] def kernelTasks(g: LocalGraph, kernels: Seq[Array[Int]],
                                  gamma: Double, tauSize: Int): (MiningGraph, Array[QCTask]) = {
    val mg = TaskSpawn.prelude(g, gamma, tauSize, recode = false)
    val toCore = Array.fill(g.n)(-1)
    mg.ids.indices.foreach(i => toCore(mg.ids(i)) = i)
    val tasks = kernels.flatMap { kernel =>
      val s = kernel.map(toCore)
      if (s.exists(_ < 0)) None
      else {
        val ext = candidatePool(mg.graph, s)
        if (ext.nonEmpty || s.length >= tauSize) Some(QCTask(s, ext)) else None
      }
    }
    (mg, tasks.toArray)
  }

  /** The shared tail: the mined `results` of `numTasks` expansion tasks
    * plus the kernels themselves (each a γ-QC, as γ' > γ), post-processed
    * to the maximal sets, the k largest.
    */
  private def outcome(results: Seq[Array[Int]], numResults: Int, kernels: Seq[Array[Int]],
                      numTasks: Int, k: Int, t0: Long): KernelOutcome = {
    val maximal = Maximality.filterMaximal(results ++ kernels.map(QuasiClique.canon))
    KernelOutcome(maximal.take(k), numResults + kernels.size, maximal.size,
      (System.nanoTime - t0) / 1e6, kernels.size, numTasks)
  }

  /** Serial [31] pipeline (Table 9). `gammaP` (γ') and `kPrime` (k') pick the
    * kernels; `gamma`/`k` shape the final answer; `tauSize` thresholds both
    * phases as in the paper's runs. Its kernels always get a task: a γ'-QC
    * of at least τ_size vertices lies in the (γ, τ_size) k-core, as γ' > γ.
    */
  def topKSerial(g: LocalGraph, gammaP: Double, kPrime: Int,
                 gamma: Double, k: Int, tauSize: Int): KernelOutcome = {
    val t0 = System.nanoTime
    expandSerial(g, kernels(g, gammaP, kPrime, tauSize), gamma, tauSize, k)
      .copy(millis = (System.nanoTime - t0) / 1e6)
  }

  /** Expands each kernel with one serial search (`Miner.recursiveMine`) over
    * its task's S ∪ ext.
    */
  def expandSerial(g: LocalGraph, kernels: Seq[Array[Int]],
                   gamma: Double, tauSize: Int, k: Int): KernelOutcome = {
    val t0 = System.nanoTime
    val (MiningGraph(_, gK, idsK, _), tasks) = kernelTasks(g, kernels, gamma, tauSize)
    val out = ArrayBuffer.empty[Array[Int]]
    for (QCTask(s, ext) <- tasks) {
      val (sub, oldIds) = GraphOps.induced(gK, s ++ ext)
      val miner = new Miner(sub, gamma, tauSize,
        arr => { out += QuasiClique.canon(arr.map(x => idsK(oldIds(x)))); () })
      miner.recursiveMine(ArrayBuffer.from(0 until s.length),
                          ArrayBuffer.from(s.length until sub.n))
    }
    outcome(out.toSeq, out.length, kernels, tasks.length, k, t0)
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
    val (MiningGraph(_, gK, idsK, _), tasks) = kernelTasks(g, kernels, gamma, tauSize)
    val res = Engine.runFromTasks(sc, gK, idsK, tasks, gamma, tauSize, mode, conf)
    outcome(res.maximal, res.numCandidates.toInt, kernels, tasks.length, k, t0)
  }
}
