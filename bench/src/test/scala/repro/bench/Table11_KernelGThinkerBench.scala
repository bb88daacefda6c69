package repro.bench

import repro.gthinker.{ATime, EngineConfig}
import repro.kernel.KernelExpand

/** Table 11: kernel expansion ON the redesigned G-thinker — top-k largest
  * cliques become initial tasks in the global queue and are expanded to
  * γ-quasi-cliques (pulling all ids, as maximality requires). Paper's
  * observation: no clear performance win over the exact solution, and
  * smaller τ_size / γ inflate time and results.
  *
  * Each row prints its number of expansion tasks: a kernel with a vertex
  * outside the (γ, τ_size) k-core gets none, and a row without tasks
  * returns its kernels unexpanded (rows (a) τ_size >= 18 and all of (c)).
  */
class Table11_KernelGThinkerBench extends BenchSpec {

  private def expand(tau: Int, gamma: Double, k: Int) = {
    val d = Datasets("YouTube")
    val kernels = KernelExpand.kernels(d.graph, 1.0, k, d.k)
    KernelExpand.expandOnEngine(sc, d.graph, kernels, gamma, tau,
      ATime(100.0), EngineConfig(16, tauSplit = 50), k = math.max(k, 100))
  }

  test("Table 11(a): top-1 kernel on YouTube-like, effect of tau_size") {
    table("Table 11(a): top-1 clique kernel on YouTube-like — tau_size | Time (s) | #Results | #Maximal | #Tasks")
    val counts = for (tau <- Seq(20, 19, 18, 17)) yield {
      val r = expand(tau, 0.9, 1)
      row(f"tau=$tau%2d gamma=0.90  time=${sec(r.millis)}%8s  results=${r.numResults}%6d  maximal=${r.numMaximal}%6d  tasks=${r.numTasks}%2d")
      r.numMaximal
    }
    assert(counts.last >= counts.head, "smaller tau_size should not reduce the result count")
  }

  test("Table 11(b): top-1 kernel on YouTube-like, effect of gamma") {
    table("Table 11(b): top-1 clique kernel on YouTube-like — gamma | Time (s) | #Results | #Maximal | #Tasks")
    val out = for (gamma <- Seq(0.9, 0.85)) yield {
      val r = expand(18, gamma, 1)
      row(f"tau=18 gamma=$gamma%4.2f  time=${sec(r.millis)}%8s  results=${r.numResults}%6d  maximal=${r.numMaximal}%6d  tasks=${r.numTasks}%2d")
      r
    }
    row("tau=18 gamma=0.80  (cut, as in the paper: expansion blows up at low gamma)")
    assert(out(1).millis >= out(0).millis * 0.5, "lower gamma should not be drastically cheaper")
  }

  test("Table 11(c): top-k kernels on YouTube-like, effect of k") {
    table("Table 11(c): top-k clique kernels on YouTube-like — k | Time (s) | #Results | #Maximal | #Tasks")
    for (k <- Seq(1, 2, 4)) {
      val r = expand(20, 0.9, k)
      row(f"tau=20 gamma=0.90 k=$k%2d  time=${sec(r.millis)}%8s  results=${r.numResults}%6d  maximal=${r.numMaximal}%6d  tasks=${r.numTasks}%2d")
      assert(r.numKernels <= k && r.numTasks <= r.numKernels)
    }
  }
}
