package repro.bench

import repro.gthinker.{ABase, Engine, EngineConfig}
import repro.kernel.KernelExpand

/** Table 9: the kernel-expansion baseline of [31] (serial pipeline) versus
  * our exact A_base. The paper's shape: kernel expansion returns at most k
  * (possibly fewer, possibly non-top) results and is generally not faster
  * than the exact algorithm.
  */
class Table09_KernelBench extends BenchSpec {

  // (dataset prefix, k, gamma', k')
  private val rows = Seq(
    ("GSE1730", 10, 0.92, 30),
    ("GSE10158", 10, 0.85, 30),
    ("CaGrQc", 10, 0.85, 30),
    ("Enron", 10, 0.95, 30),
    ("Amazon", 10, 0.55, 30),
    ("Hyves", 10, 0.95, 30))

  test("Table 9: performance of kernel expansion [31] vs A_base") {
    table("Table 9: kernel expansion — Time (s) | #Results (top-k) | A_base time (s)")
    row(f"${"Data"}%-15s ${"Tsize"}%6s ${"k"}%4s ${"g'"}%5s ${"k'"}%4s ${"Time"}%8s ${"#Res"}%6s ${"A_base"}%8s")
    for ((prefix, k, gp, kp) <- rows) {
      val d = Datasets(prefix)
      val kern = KernelExpand.topKSerial(d.graph, gp, kp, d.gamma, k, d.tauSize)
      val base = Engine.run(sc, d.graph, d.gamma, d.tauSize, ABase, EngineConfig(16))
      row(f"${d.name}%-15s ${d.tauSize}%6d $k%4d $gp%5.2f $kp%4d ${sec(kern.millis)}%8s ${kern.topK.size}%6d ${sec(base.wallMillis)}%8s")
      // kernel expansion can only return kernel-reachable results
      assert(kern.topK.size <= k)
      kern.topK.foreach(s => assert(s.length >= d.tauSize))
      // it must never return MORE maximal results than the exact miner found
      assert(kern.numMaximal <= math.max(base.numMaximal, kern.numKernels),
        s"$prefix: kernel method cannot exceed the exact result pool")
    }
  }

  test("Table 9 (diversity): kernel expansion misses results that the exact algorithm finds") {
    // GSE1730-like has three far-apart planted communities; a single kernel
    // explores one region and misses the others (paper's critique (1)).
    val d = Datasets("GSE1730")
    val exact = Engine.run(sc, d.graph, d.gamma, d.tauSize, ABase, EngineConfig(16))
    val kern = KernelExpand.topKSerial(d.graph, 0.92, 1, d.gamma, 100, d.tauSize)
    row(s"GSE1730-like: exact maximal=${exact.numMaximal}, k'=1 kernel expansion maximal=${kern.numMaximal}")
    assert(exact.numMaximal > kern.numMaximal,
      "a single kernel must miss results found by the exact miner")
  }
}
