package repro.graph

/** Graphs that only the tests use. */
object TestGraphs {

  /** Small Erdős–Rényi graph for tests: one `denseBlock` over all n vertices. */
  def erdosRenyi(n: Int, p: Double, seed: Long): LocalGraph =
    LocalGraph.fromEdges(n, GraphGen.denseBlock(Array.range(0, n), p, seed))

  /** The Figure-1 example graph of the paper (vertices a..i -> 0..8). */
  def figure1: LocalGraph = {
    // a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8
    LocalGraph.fromPairs(9, Seq(
      0 -> 1, 0 -> 2, 0 -> 3, 0 -> 4, // a-b a-c a-d a-e
      1 -> 2, 1 -> 4,                 // b-c b-e
      2 -> 3, 2 -> 4,                 // c-d c-e
      3 -> 4,                         // d-e
      3 -> 7, 3 -> 8,                 // d-h d-i
      5 -> 6, 5 -> 7,                 // f-g f-h
      6 -> 7, 6 -> 8,                 // g-h g-i
      7 -> 8                          // h-i
    ))
  }
}
