package repro.kernel

import repro.SparkSpec
import repro.SpecHelpers.canonSet
import repro.core.BruteForce
import repro.graph.{LocalGraph, TestGraphs}
import repro.gthinker.{ASplit, EngineConfig}

class KernelExpandSpec extends SparkSpec {

  /** Two far-apart dense regions: a 7-clique on 0..6 and a 6-clique on
    * 10..15, joined by a long path so the graph is connected.
    */
  private def twoRegions: LocalGraph = {
    val c1 = for (i <- 0 until 7; j <- i + 1 until 7) yield (i, j)
    val c2 = for (i <- 10 until 16; j <- i + 1 until 16) yield (i, j)
    val path = Seq(6 -> 7, 7 -> 8, 8 -> 9, 9 -> 10)
    LocalGraph.fromPairs(16, c1 ++ c2 ++ path)
  }

  test("every returned top-k set is a true maximal quasi-clique") {
    val g = twoRegions
    val truth = canonSet(BruteForce.allMaximal(g, 0.8, 4))
    val out = KernelExpand.topKSerial(g, gammaP = 0.9, kPrime = 3, gamma = 0.8, k = 5, tauSize = 4)
    assert(out.topK.nonEmpty)
    out.topK.foreach { s =>
      assert(BruteForce.isQuasiClique(g, s, 0.8))
      assert(truth.contains(s.toVector), s"${s.toVector} not truly maximal")
    }
  }

  test("k'=1 kernels miss results in other regions (the paper's diversity critique)") {
    val g = twoRegions
    val truth = canonSet(BruteForce.allMaximal(g, 1.0, 4))
    assert(truth.size >= 2) // both cliques are maximal
    val out = KernelExpand.topKSerial(g, gammaP = 1.0, kPrime = 1, gamma = 1.0, k = 10, tauSize = 4)
    // with a single kernel (the 7-clique) the 6-clique region is never explored
    assert(canonSet(out.topK).size < truth.size,
      s"expected missed results, got ${out.topK.size} of ${truth.size}")
  }

  test("candidatePool is the intersection of 2-hop balls minus S") {
    val g = TestGraphs.erdosRenyi(20, 0.3, 4)
    val s = Array(0, 1)
    val pool = KernelExpand.candidatePool(g, s).toSet
    def ball(v: Int): Set[Int] =
      g.adj(v).toSet ++ g.adj(v).flatMap(u => g.adj(u).toSet)
    val expect = (ball(0) intersect ball(1)) -- s.toSet
    assert(pool == expect)
  }

  test("kernels at gamma' = 1 are the largest cliques, largest first") {
    val g = twoRegions
    val ks = KernelExpand.kernels(g, 1.0, 2, 4)
    assert(ks.map(_.toVector) == Seq((0 until 7).toVector, (10 until 16).toVector))
    ks.foreach { c =>
      for (a <- c; b <- c if a != b) assert(g.hasEdge(a, b))
    }
  }

  test("a kernel outside the k-core: no task on either path, still returned") {
    val g = twoRegions
    val ks = KernelExpand.kernels(g, 1.0, 2, 4) // the 7-clique, then the 6-clique
    // gamma = 0.9, tau = 7: the 6-core keeps the 7-clique and peels the 6-clique
    val (mg, tasks) = KernelExpand.kernelTasks(g, ks, 0.9, 7)
    assert(tasks.map(_.s.map(mg.ids).sorted.toVector).toSeq == Seq(ks(0).sorted.toVector))
    val serial = KernelExpand.expandSerial(g, ks, 0.9, 7, k = 10)
    val eng = KernelExpand.expandOnEngine(spark.sparkContext, g, ks, 0.9, 7,
      ASplit, EngineConfig(2, tauSplit = 4), k = 10)
    for (out <- Seq(serial, eng)) {
      assert(out.numKernels == 2)
      assert(canonSet(out.topK) == canonSet(ks))
    }
    assert(serial.numResults == eng.numResults)
  }

  test("engine-based kernel expansion agrees with the serial expansion") {
    val g = twoRegions
    val kernels = KernelExpand.kernels(g, 1.0, 2, 4)
    val eng = KernelExpand.expandOnEngine(spark.sparkContext, g, kernels, 0.8, 4,
      ASplit, EngineConfig(2, tauSplit = 4), k = 10)
    val truth = canonSet(BruteForce.allMaximal(g, 0.8, 4))
    eng.topK.foreach(s => assert(truth.contains(s.toVector), s.toVector))
    // with kernels in both regions the engine finds the big sets of both
    assert(eng.topK.exists(_.forall(_ < 7)))
    assert(eng.topK.exists(_.forall(_ >= 10)))
  }

  test("topK is sorted by size descending and capped at k") {
    val g = twoRegions
    val out = KernelExpand.topKSerial(g, 0.9, 3, 0.8, 2, 4)
    assert(out.topK.size <= 2)
    assert(out.topK.map(_.length) == out.topK.map(_.length).sorted.reverse)
  }
}
