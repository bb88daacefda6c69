package repro.gthinker

import repro.SparkSpec
import repro.core.QuickPlus
import repro.graph.{LocalGraph, NearThreshold}

/** Metamorphic checks on the planted near-threshold graphs: renaming the
  * vertices renames the answer, vertices that can join no result change
  * nothing, and a disjoint second plant adds exactly its own answer. They
  * hold for serial Quick+ and for the engine alike.
  */
class MetamorphicSpec extends SparkSpec {

  private def canonSet(rs: Seq[Array[Int]]): Set[Vector[Int]] = rs.map(_.toVector).toSet

  private val seeds = 1 to 5
  /** γ and τ_size cycle with the seed, as in the brute-force sweeps. */
  private def params(seed: Int): (Double, Int) = (Seq(0.6, 0.7, 0.75, 0.8, 0.9)(seed % 5), 4 + seed % 3)

  private val miners: Seq[(String, (LocalGraph, Double, Int) => Set[Vector[Int]])] = Seq(
    "serial Quick+" -> ((g, gamma, tau) => canonSet(QuickPlus.mineSerial(g, gamma, tau).maximal)),
    "engine A_time(0), p=4" -> ((g, gamma, tau) =>
      canonSet(Engine.run(spark.sparkContext, g, gamma, tau, ATime(0.0), EngineConfig(4, tauSplit = 2)).maximal)))

  /** `g` with each edge (u, v) renamed (perm(u), perm(v)). */
  private def relabel(g: LocalGraph, perm: Array[Int]): LocalGraph =
    LocalGraph.fromEdges(g.n, g.packedEdges.map(e => LocalGraph.pack(perm(LocalGraph.unpackU(e)), perm(LocalGraph.unpackV(e)))))

  for ((name, mine) <- miners) {
    test(s"$name: a vertex permutation π gives exactly π(answer)") {
      val answers = seeds.map { seed =>
        val (gamma, tau) = params(seed)
        val g = NearThreshold.graph(seed)
        val perm = new scala.util.Random(seed).shuffle(Vector.range(0, g.n)).toArray
        val answer = mine(g, gamma, tau)
        assert(mine(relabel(g, perm), gamma, tau) == answer.map(_.map(perm).sorted), s"seed=$seed")
        answer
      }
      assert(answers.exists(_.nonEmpty), "every answer is empty: the check would show nothing")
    }

    test(s"$name: 20 isolated vertices and a disjoint triangle change nothing") {
      for (seed <- seeds) {
        val (gamma, tau) = params(seed)
        val g = NearThreshold.graph(seed)
        val n = g.n
        // vertices n … n+19 stay isolated; n+20 … n+22 form a triangle, smaller than τ_size ≥ 4
        val triangle = Array(LocalGraph.pack(n + 20, n + 21), LocalGraph.pack(n + 20, n + 22), LocalGraph.pack(n + 21, n + 22))
        val grown = LocalGraph.fromEdges(n + 23, g.packedEdges ++ triangle)
        assert(mine(grown, gamma, tau) == mine(g, gamma, tau), s"seed=$seed")
      }
    }

    test(s"$name: a disjoint second plant g ⊎ h gives answer(g) ∪ shift(answer(h))") {
      val hAnswers = seeds.map { seed =>
        val (gamma, tau) = params(seed)
        val g = NearThreshold.graph(seed)
        val h = NearThreshold.graph(seed + 10)
        val union = LocalGraph.fromEdges(g.n + h.n, g.packedEdges ++
          h.packedEdges.map(e => LocalGraph.pack(LocalGraph.unpackU(e) + g.n, LocalGraph.unpackV(e) + g.n)))
        val hAnswer = mine(h, gamma, tau)
        assert(mine(union, gamma, tau) == mine(g, gamma, tau) ++ hAnswer.map(_.map(_ + g.n)), s"seed=$seed")
        hAnswer
      }
      assert(hAnswers.exists(_.nonEmpty), "every second plant's answer is empty: the check would show nothing")
    }
  }
}
