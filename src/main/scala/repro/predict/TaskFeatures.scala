package repro.predict

import repro.core.{Miner, TaskSpawn}
import repro.graph.{GraphOps, LocalGraph}
import repro.graph.GraphOps.SubgraphFeatures
import scala.collection.mutable.ArrayBuffer

/** One ego task of Tables 1–2: its subgraph's features and the time its
  * whole set-enumeration subtree took to mine.
  */
final case class TaskTime(features: SubgraphFeatures, mineNanos: Long)

/** Feature extraction for the task-time regression of Tables 1–2: the
  * size/degree/core features of the task subgraph (the paper also used the
  * top-10 degrees and core indices; our subgraphs are smaller, so the five
  * headline features plus simple interactions suffice to make the same
  * point — the model still cannot see the stragglers).
  */
object TaskFeatures {

  /** Every ego task of `g` under A_base, which mines a task's ego network
    * whole: the prelude (k-core, recoding), then for each spawned task its
    * features and the time of `recursiveMine`, Miner set-up included, in
    * spawn order. These are the tasks `Engine.run` processes under A_base,
    * timed serially on one thread.
    */
  def egoTaskTimes(g: LocalGraph, gamma: Double, tauSize: Int): Seq[TaskTime] = {
    TaskSpawn.egoTasks(TaskSpawn.prelude(g, gamma, tauSize, recode = true)).map { case (task, _) =>
      val features = GraphOps.features(task)
      val t0 = System.nanoTime
      new Miner(task, gamma, tauSize, _ => ()).recursiveMine(ArrayBuffer(0), ArrayBuffer.from(1 until task.n))
      TaskTime(features, System.nanoTime - t0)
    }.toSeq
  }

  def vector(f: SubgraphFeatures): Array[Double] = Array(
    f.nV.toDouble,
    f.nE.toDouble,
    f.maxDeg.toDouble,
    f.avgDeg,
    f.coreNum.toDouble,
    math.log1p(f.nV.toDouble),
    math.log1p(f.nE.toDouble),
    f.coreNum.toDouble * f.avgDeg)

  /** Fit a kernel ridge model (λ = 1, RBF σ = 2) on (features -> mining
    * millis) and return per-task predictions. Training is capped at
    * `maxTrain` tasks (largest-first by mining time is NOT used — sampling
    * is uniform by index stride — so the model has the same information the
    * paper's SVR had).
    */
  def fitPredict(tasks: Seq[TaskTime]): Seq[Double] = {
    val maxTrain = 1200
    val xs = tasks.map(t => vector(t.features)).toArray
    val ys = tasks.map(_.mineNanos / 1e6).toArray
    val idx =
      if (xs.length <= maxTrain) xs.indices.toArray
      else {
        val stride = xs.length.toDouble / maxTrain
        (0 until maxTrain).map(i => (i * stride).toInt).distinct.toArray
      }
    val model = new KernelRidge(lambda = 1.0, sigma = 2.0).fit(idx.map(xs), idx.map(ys))
    xs.map(model.predict).toSeq
  }
}
