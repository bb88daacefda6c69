package repro.graph

import java.util.Random

/** Planted near-threshold test graphs: a sparse Erdős–Rényi background on
  * 16 vertices plus two overlapping dense blocks. Their quasi-cliques sit
  * close to the γ and τ_size thresholds, where the boundary prunes
  * (Theorems 4, 6, 8) and the critical-vertex moves act. Every size and
  * density is drawn from `new Random(seed)`.
  */
object NearThreshold {
  private val n = 16

  def graph(seed: Long): LocalGraph = {
    val rnd = new Random(seed)
    val background = TestGraphs.erdosRenyi(n, 0.12 + 0.10 * rnd.nextDouble(), rnd.nextLong())
    val perm = new scala.util.Random(rnd).shuffle(Vector.range(0, n)).toArray
    val a       = 6 + rnd.nextInt(4) // 6..9 vertices per block,
    val b       = 6 + rnd.nextInt(4)
    val overlap = 2 + rnd.nextInt(3) // 2..4 shared, so a - overlap + b <= n
    def plant(members: Array[Int]) = GraphGen.denseBlock(members, 0.75 + 0.20 * rnd.nextDouble(), rnd.nextLong())
    LocalGraph.fromEdges(n, background.packedEdges ++
      plant(perm.slice(0, a)) ++ plant(perm.slice(a - overlap, a - overlap + b)))
  }

  /** Overlapping clique plants on a sparse background: unions of 2..4
    * cliques of 4..8 vertices that share vertices are quasi-cliques near
    * the γ threshold, where critical-vertex moves and Type-I removals act.
    */
  def overlapping(seed: Long): LocalGraph = {
    val rnd = new scala.util.Random(seed)
    LocalGraph.fromEdges(n,
      TestGraphs.erdosRenyi(n, 0.08 + 0.10 * rnd.nextDouble(), rnd.nextLong()).packedEdges ++
        GraphGen.overlappingCliques(n, 2 + rnd.nextInt(3), 4, 8, rnd.nextLong()))
  }
}
