package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SpecHelpers.relabel
import repro.graph.{GraphGen, LocalGraph, NearThreshold}
import scala.util.Random

/** Rules A and B (the default preset) cut search nodes and candidates, not
  * results: the maximal sets equal those of Quick+ as published (the paper
  * preset). Their candidates differ, so the gate compares maximal sets.
  */
class PresetEquivalenceSpec extends AnyFunSuite {

  private def maximal(g: LocalGraph, gamma: Double, tau: Int, config: MinerConfig): Set[Vector[Int]] =
    QuickPlus.mineSerial(g, gamma, tau, config).maximal.map(_.toVector).toSet

  private def assertSameMaximal(g: LocalGraph, gamma: Double, tau: Int, label: String): Set[Vector[Int]] = {
    val paper = maximal(g, gamma, tau, MinerConfig.quickPlusPaper)
    val rules = maximal(g, gamma, tau, MinerConfig.quickPlus)
    assert(rules == paper, s"$label: missing=${(paper -- rules).take(3)} extra=${(rules -- paper).take(3)}")
    paper
  }

  // the recoding, the ego tasks and so the search order all follow the ids
  for (d <- Seq(GraphGen.hyvesLike(), GraphGen.enronLike(), GraphGen.gse10158Like(),
                GraphGen.gse1730Like(), GraphGen.caGrQcLike()))
    test(s"same maximal sets on ${d.name}, 3 relabellings") {
      val paper = assertSameMaximal(d.graph, d.gamma, d.tauSize, d.name)
      assert(paper.nonEmpty, s"${d.name} has no result")
      for (seed <- 1 to 3) {
        val perm = new Random(seed).shuffle(Vector.range(0, d.graph.n)).toArray
        val back = Array.fill(perm.length)(0)
        perm.indices.foreach(v => back(perm(v)) = v)
        val rules = maximal(relabel(d.graph, perm), d.gamma, d.tauSize, MinerConfig.quickPlus)
          .map(q => q.map(back).sorted)
        assert(rules == paper, s"${d.name} relabelled (seed=$seed): " +
          s"missing=${(paper -- rules).take(3)} extra=${(rules -- paper).take(3)}")
      }
    }

  for (seed <- 1 to 20)
    test(s"same maximal sets on planted near-threshold graphs (seed=$seed)") {
      val g = NearThreshold.graph(seed)
      for (gamma <- Seq(0.6, 0.7, 0.75, 0.8, 0.9); tau <- Seq(4, 5, 6))
        assertSameMaximal(g, gamma, tau, s"planted(seed=$seed) gamma=$gamma tau=$tau")
    }
}
