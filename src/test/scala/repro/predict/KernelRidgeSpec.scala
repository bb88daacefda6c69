package repro.predict

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class KernelRidgeSpec extends AnyFunSuite {

  test("solve: Gaussian elimination recovers a known solution") {
    val rnd = new Random(3)
    for (trial <- 1 to 5) {
      val n = 8
      val a = Array.tabulate(n, n)((i, j) => if (i == j) 5.0 + rnd.nextDouble() else rnd.nextDouble() * 0.3)
      val x = Array.fill(n)(rnd.nextDouble() * 4 - 2)
      val aug = Array.tabulate(n, n + 1)((i, j) =>
        if (j < n) a(i)(j) else (0 until n).map(k => a(i)(k) * x(k)).sum)
      val got = KernelRidge.solve(aug)
      (0 until n).foreach(i => assert(math.abs(got(i) - x(i)) < 1e-8, s"trial=$trial i=$i"))
    }
  }

  test("fit interpolates training data with small lambda") {
    val rnd = new Random(5)
    val xs = Array.fill(40)(Array(rnd.nextDouble() * 10, rnd.nextDouble() * 10))
    val ys = xs.map(v => 3.0 * v(0) - 2.0 * v(1) + 1.0)
    val model = new KernelRidge(lambda = 1e-6, sigma = 3.0).fit(xs, ys)
    val errs = xs.zip(ys).map { case (x, y) => math.abs(model.predict(x) - y) }
    assert(errs.max < 0.5, s"max err ${errs.max}")
  }

  test("fit generalizes on a smooth function") {
    val rnd = new Random(6)
    val xs = Array.fill(120)(Array(rnd.nextDouble() * 6))
    val ys = xs.map(v => math.sin(v(0)) * 5)
    val model = new KernelRidge(lambda = 1e-4, sigma = 1.0).fit(xs, ys)
    val test = Array.fill(50)(Array(rnd.nextDouble() * 6))
    val errs = test.map(x => math.abs(model.predict(x) - math.sin(x(0)) * 5))
    assert(errs.sum / errs.length < 0.5, s"mean err ${errs.sum / errs.length}")
  }

  test("the paper's negative result: heavy-tailed targets with uninformative features are badly under-predicted") {
    // features carry almost no signal about a heavy-tailed target (like task
    // subgraph features vs exponential search time): the regressor predicts
    // near the bulk and misses the straggler by a large factor — which is
    // exactly the last column of Tables 1 and 2.
    val rnd = new Random(7)
    val xs = Array.fill(200)(Array(5.0 + rnd.nextGaussian(), 5.0 + rnd.nextGaussian()))
    val ys = Array.tabulate(200)(i => if (i == 137) 50000.0 else rnd.nextDouble * 10)
    val model = new KernelRidge(lambda = 1.0, sigma = 2.0).fit(xs, ys)
    val straggler = model.predict(xs(137))
    assert(straggler < ys(137) / 3.0, s"regressor should grossly under-predict the straggler, got $straggler")
  }

  test("TaskFeatures.fitPredict returns one prediction per task") {
    import repro.graph.GraphOps.SubgraphFeatures
    val rnd = new Random(8)
    val tasks = Seq.fill(50)(TaskTime(
      SubgraphFeatures(10 + rnd.nextInt(100), rnd.nextInt(1000), rnd.nextInt(50), rnd.nextDouble * 20, rnd.nextInt(20)),
      (rnd.nextDouble * 1e8).toLong))
    val preds = TaskFeatures.fitPredict(tasks)
    assert(preds.size == tasks.size)
    assert(preds.forall(p => !p.isNaN && !p.isInfinite))
  }

  test("singular system raises a clear error") {
    val aug = Array(Array(1.0, 1.0, 2.0), Array(1.0, 1.0, 2.0)) // rank 1
    intercept[IllegalArgumentException] { KernelRidge.solve(aug) }
  }
}
