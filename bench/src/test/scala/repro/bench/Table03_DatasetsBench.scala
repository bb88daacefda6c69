package repro.bench

import repro.graph.GraphOps

/** Table 3: dataset statistics — (a) the raw graphs, (b) default (γ,
  * τ_size, k) and the graph after k-core pruning.
  */
class Table03_DatasetsBench extends BenchSpec {

  test("Table 3(a): statistics of graph datasets") {
    table("Table 3(a): statistics of (synthetic analogue) graph datasets")
    row(f"${"Data"}%-15s ${"|V|"}%9s ${"|E|"}%10s ${"|E|/|V|"}%8s ${"MaxDeg"}%7s")
    for (d <- Datasets.all) {
      val g = d.graph // |V| includes isolated vertices, as the raw |V| of the dataset
      row(f"${d.name}%-15s ${g.n}%9d ${g.numEdges}%10d ${g.numEdges.toDouble / g.n}%8.2f ${g.maxDegree}%7d")
    }
  }

  test("Table 3(b): default parameters and statistics after k-core pruning") {
    table("Table 3(b): default (tau_size, gamma, k) and pruned-graph statistics")
    row(f"${"Data"}%-15s ${"Tsize"}%6s ${"gamma"}%6s ${"k"}%3s ${"|V|"}%7s ${"|E|"}%9s ${"|E|/|V|"}%8s ${"MaxDeg"}%7s")
    for (d <- Datasets.all) {
      val (core, _) = GraphOps.kCoreSubgraph(d.graph, d.k)
      val ratio = if (core.n == 0) 0.0 else core.numEdges.toDouble / core.n
      row(f"${d.name}%-15s ${d.tauSize}%6d ${d.gamma}%6.2f ${d.k}%3d ${core.n}%7d ${core.numEdges}%9d $ratio%8.2f ${core.maxDegree}%7d")
      assert(core.n < d.graph.n, s"${d.name}: k-core must prune")
      if (core.n > 0) (0 until core.n).foreach(v => assert(core.degree(v) >= d.k))
    }
  }
}
