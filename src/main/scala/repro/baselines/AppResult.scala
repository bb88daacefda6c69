package repro.baselines

/** One Table 4 measurement: the application's answer (triangles, 4-cliques
  * or the maximum clique size) and the wall time that produced it.
  */
final case class AppResult(value: Long, millis: Double)
