package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

/** Property tests for U_S / L_S: on random (graph, S, ext) instances the
  * verdicts must sandwich every ACTUAL valid extension found by brute force.
  * This validates Eqs 1–8 and Lemma 2 end to end.
  */
class BoundsSpec extends AnyFunSuite {

  private def degreesOf(g: LocalGraph, s: Array[Int], ext: Array[Int]) = {
    val inS = s.toSet; val inE = ext.toSet
    def dS(v: Int)  = g.adj(v).count(inS.contains)
    def dE(v: Int)  = g.adj(v).count(inE.contains)
    val sumDS = s.map(dS).sum
    val dMinTotal = s.map(v => dS(v) + dE(v)).min
    val dMinS = s.map(dS).min
    val dsExt = ext.map(dS).sorted.reverse
    (sumDS, dMinTotal, dMinS, dsExt)
  }

  private def validExtensionSizes(g: LocalGraph, s: Array[Int], ext: Array[Int], gamma: Double): Seq[Int] = {
    val sizes = Seq.newBuilder[Int]
    val m = ext.length
    var mask = 0
    while (mask < (1 << m)) {
      val z = (0 until m).filter(i => (mask & (1 << i)) != 0).map(ext)
      val all = (s ++ z).sorted
      // bounds are degree-based: use the degree-only predicate here
      val inAll = all.toSet
      val need = QuasiClique.ceilGamma(gamma, all.length - 1)
      if (all.forall(v => g.adj(v).count(inAll.contains) >= need)) sizes += z.length
      mask += 1
    }
    sizes.result()
  }

  for (seed <- 1 to 12) test(s"verdict sandwiches all valid extension sizes (seed=$seed)") {
    val rnd = new Random(seed)
    val g = GraphGen.erdosRenyi(14, 0.5 + 0.3 * rnd.nextDouble(), seed * 17)
    val gamma = Seq(0.5, 0.6, 0.75, 0.9)(rnd.nextInt(4))
    val perm = rnd.shuffle((0 until g.n).toList)
    val s = perm.take(1 + rnd.nextInt(4)).toArray
    val ext = perm.slice(s.length, s.length + 6 + rnd.nextInt(4)).toArray
    val (sumDS, dMinTotal, dMinS, dsExt) = degreesOf(g, s, ext)
    val sizes = validExtensionSizes(g, s, ext, gamma)

    for (quickCompat <- Seq(false, true)) {
      Bounds.compute(s.length, sumDS, dMinTotal, dMinS, dsExt, gamma, quickCompat) match {
        case Bounds.PruneAll =>
          assert(sizes.isEmpty, s"gamma=$gamma PruneAll but valid sizes=$sizes")
        case Bounds.PruneExtensions =>
          assert(!sizes.exists(_ >= 1), s"gamma=$gamma PruneExtensions but valid nonempty ext sizes=$sizes")
        case Bounds.Ok(us, ls) =>
          assert(us >= 1)
          sizes.filter(_ >= 1).foreach { t =>
            assert(t <= us, s"gamma=$gamma ext size $t above U_S=$us")
            assert(t >= ls, s"gamma=$gamma ext size $t below L_S=$ls")
          }
      }
    }
  }

  test("quickCompat never prunes when quickPlus does not (it is strictly weaker)") {
    val rnd = new Random(7)
    for (_ <- 1 to 30) {
      val g = GraphGen.erdosRenyi(12, 0.5, rnd.nextInt(1000))
      val perm = rnd.shuffle((0 until g.n).toList)
      val s = perm.take(2).toArray
      val ext = perm.slice(2, 8).toArray
      val (sumDS, dMinTotal, dMinS, dsExt) = degreesOf(g, s, ext)
      val plus  = Bounds.compute(s.length, sumDS, dMinTotal, dMinS, dsExt, 0.8, quickCompat = false)
      val quick = Bounds.compute(s.length, sumDS, dMinTotal, dMinS, dsExt, 0.8, quickCompat = true)
      (plus, quick) match {
        case (Bounds.Ok(_, _), Bounds.PruneExtensions) =>
          fail("quick pruned extensions where quick+ kept them")
        case (Bounds.Ok(_, _), Bounds.PruneAll) =>
          fail("quick pruned everything where quick+ kept it")
        case _ => ()
      }
    }
  }

  test("clique instance: U_S and L_S are exact at the boundary") {
    // complete graph K6, S = {0,1}, ext = {2,3,4,5}, gamma = 1 (cliques):
    // every extension size 0..4 is valid, so L_S = 0 and U_S = 4
    val g = GraphGen.erdosRenyi(6, 1.1, 0)
    val s = Array(0, 1); val ext = Array(2, 3, 4, 5)
    val (sumDS, dMinTotal, dMinS, dsExt) = degreesOf(g, s, ext)
    Bounds.compute(2, sumDS, dMinTotal, dMinS, dsExt, 1.0, quickCompat = false) match {
      case Bounds.Ok(us, ls) => assert(us == 4 && ls == 0)
      case v                 => fail(s"unexpected verdict $v")
    }
  }

  // The miner passes its ⌈γ·m⌉ table (sized to the task, so longer than a
  // call needs) and a frame's d_S histogram, whose bins above |S| are
  // stale; the verdict must equal the γ-only entry's, and that of a table
  // of exact rational ceilings, at every paper γ, at products like
  // 0.9 * 10 that sit on an integer, and with an empty ext.
  test("the table-taking compute gives the gamma-only entry's verdict") {
    val rnd = new Random(42)
    for (gammaStr <- Seq("0.5", "0.6", "0.75", "0.8", "0.9", "0.95", "1.0")) {
      val gamma = gammaStr.toDouble
      val exact = Array.tabulate(41)(m =>
        (BigDecimal(gammaStr) * m).setScale(0, BigDecimal.RoundingMode.CEILING).toInt)
      val table = new Miner(GraphGen.erdosRenyi(38, 0.3, 1), gamma, 2, _ => ()).ceilG
      var onInteger = 0; var emptyExt = 0
      for (_ <- 1 to 400) {
        val sSize = 1 + rnd.nextInt(12)
        val nExt  = rnd.nextInt(14)
        val dsExt = Array.fill(nExt)(rnd.nextInt(sSize + 1)).sorted.reverse
        val dMinS = rnd.nextInt(sSize)
        val sumDS = dMinS + (1 until sSize).map(_ => dMinS + rnd.nextInt(sSize - dMinS)).sum
        val dMinTotal = dMinS + rnd.nextInt(nExt + 1)
        val hist = Array.fill(sSize + 1 + rnd.nextInt(4))(rnd.nextInt(2000) - 1000)
        java.util.Arrays.fill(hist, 0, sSize + 1, 0)
        dsExt.foreach(d => hist(d) += 1)
        if ((1 until sSize + nExt).exists(m => (BigDecimal(gammaStr) * m).isWhole)) onInteger += 1
        if (nExt == 0) emptyExt += 1
        for (quickCompat <- Seq(false, true)) {
          val ref = Bounds.compute(sSize, sumDS, dMinTotal, dMinS, dsExt, gamma, quickCompat)
          def withTable(t: Array[Int]) =
            Bounds.compute(sSize, sumDS, dMinTotal, dMinS, hist, nExt, gamma, t, quickCompat)
          val ctx = s"gamma=$gammaStr |S|=$sSize sumDS=$sumDS dMinTotal=$dMinTotal dMinS=$dMinS dsExt=${dsExt.toSeq} quick=$quickCompat"
          assert(withTable(table) == ref, ctx)
          assert(withTable(exact) == ref, ctx)
        }
      }
      assert(onInteger > 0, s"gamma=$gammaStr: no input reached an integer product")
      assert(emptyExt > 0, s"gamma=$gammaStr: no input had an empty ext")
    }
  }

  test("the miner's ceil table is ceilGamma for every m <= n + 1") {
    for (n <- Seq(0, 1, 12, 64, 130); gamma <- Seq(0.5, 0.6, 0.75, 0.8, 0.9, 0.95, 1.0)) {
      val table = new Miner(GraphGen.erdosRenyi(n, 0.2, n), gamma, 2, _ => ()).ceilG
      assert(table.length == n + 2, s"n=$n")
      for (m <- 0 to n + 1) assert(table(m) == QuasiClique.ceilGamma(gamma, m), s"n=$n gamma=$gamma m=$m")
    }
  }

  test("bounds require non-empty S") {
    intercept[IllegalArgumentException] {
      Bounds.compute(0, 0, 0, 0, Array.emptyIntArray, 0.9, quickCompat = false)
    }
  }
}
