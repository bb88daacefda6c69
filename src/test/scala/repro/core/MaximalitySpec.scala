package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MaximalitySpec extends AnyFunSuite {

  private def naive(results: Seq[Array[Int]]): Set[Vector[Int]] = {
    val d = results.map(_.toVector).distinct
    d.filter(s => !d.exists(t => t.size > s.size && s.toSet.subsetOf(t.toSet))).toSet
  }

  for (seed <- 1 to 10) test(s"filterMaximal matches the naive quadratic filter (seed=$seed)") {
    val rnd = new Random(seed)
    val fam = Seq.fill(60) {
      val sz = 1 + rnd.nextInt(6)
      Array.fill(sz)(rnd.nextInt(15)).distinct.sorted
    }
    assert(Maximality.filterMaximal(fam).map(_.toVector).toSet == naive(fam))
    // wider ids and sizes, with some members repeated at scattered positions
    val wide = Seq.fill(80)(Array.fill(1 + rnd.nextInt(24))(rnd.nextInt(201)).distinct.sorted)
    val withRepeats = wide.zipWithIndex.flatMap { case (a, i) =>
      if (i % 7 == 3) Seq(a, a.clone) else Seq(a)
    } ++ Seq.fill(10)(wide(rnd.nextInt(wide.size)).clone)
    val shuffled = rnd.shuffle(withRepeats)
    val out = Maximality.filterMaximal(shuffled)
    assert(out.map(_.toVector).toSet == naive(shuffled))
    assert(out.map(_.toVector).distinct.size == out.size)
  }

  private val bySizeThenLex: Ordering[Vector[Int]] =
    Ordering.by[Vector[Int], Int](-_.size).orElse(Ordering.Implicits.seqOrdering[Vector, Int])

  for (seed <- 1 to 5) test(s"sparse ids near 80,000: same sets as the naive filter, in size-then-lex order (seed=$seed)") {
    // ids as sparse as Hyves-like's original ones: 300 of the ids up to 79,999
    val rnd = new Random(seed)
    val pool = (79999 +: Array.fill(299)(rnd.nextInt(80000))).distinct
    val base = Seq.fill(120)(Array.fill(2 + rnd.nextInt(20))(pool(rnd.nextInt(pool.length))).distinct.sorted)
    // subsets and copies of some sets, so that sets get dominated and deduplicated
    val fam = rnd.shuffle(base ++ base.take(40).map(a => a.filter(_ => rnd.nextBoolean())).filter(_.nonEmpty) ++
      base.take(10).map(_.clone))
    val out = Maximality.filterMaximal(fam).map(_.toVector)
    assert(out == naive(fam).toSeq.sorted(bySizeThenLex))
  }

  // The engine filters each partition's candidates before the driver
  // filters their union: a set contained in another of its part is
  // contained in another of the whole, so the answer and its order stay.
  for (seed <- 1 to 10) test(s"filtering parts, then their union, equals filtering the whole, in order (seed=$seed)") {
    val rnd = new Random(seed)
    val pool = Array.fill(40)(rnd.nextInt(100000)).distinct // sparse ids
    val base = Seq.fill(100)(Array.fill(1 + rnd.nextInt(12))(pool(rnd.nextInt(pool.length))).distinct.sorted)
    // subsets and copies of some sets, so that sets get dominated and deduplicated
    val all = rnd.shuffle(base ++ base.take(30).map(a => a.filter(_ => rnd.nextBoolean())).filter(_.nonEmpty) ++
      base.take(20).map(_.clone))
    val k = 1 + rnd.nextInt(12)
    val parts = all.groupBy(_ => rnd.nextInt(k)).values.toSeq
    val whole = Maximality.filterMaximal(all).map(_.toVector)
    assert(whole.size < base.size)
    assert(Maximality.filterMaximal(parts.flatMap(Maximality.filterMaximal)).map(_.toVector) == whole, s"k=$k")
  }

  test("duplicates collapse to one") {
    val fam = Seq(Array(1, 2, 3), Array(1, 2, 3), Array(1, 2))
    val out = Maximality.filterMaximal(fam)
    assert(out.map(_.toVector) == Seq(Vector(1, 2, 3)))
  }

  test("equal-size incomparable sets are all kept") {
    val fam = Seq(Array(1, 2), Array(3, 4), Array(2, 3))
    assert(Maximality.filterMaximal(fam).size == 3)
  }

  test("chain of subsets keeps only the top") {
    val fam = Seq(Array(1), Array(1, 2), Array(1, 2, 3), Array(1, 2, 3, 4))
    assert(Maximality.filterMaximal(fam).map(_.toVector) == Seq(Vector(1, 2, 3, 4)))
  }

  test("output is ordered by size descending") {
    val fam = Seq(Array(1, 2), Array(5, 6, 7), Array(9))
    val out = Maximality.filterMaximal(fam)
    assert(out.map(_.length) == out.map(_.length).sorted.reverse)
  }

  test("output is ordered by size descending, then numeric lexicographic order") {
    val fam = Seq(Array(2, 10), Array(7), Array(2, 9), Array(1, 2, 3), Array(1, 11), Array(0, 5, 6))
    val out = Maximality.filterMaximal(fam)
    assert(out.map(_.toVector) ==
      Seq(Vector(0, 5, 6), Vector(1, 2, 3), Vector(1, 11), Vector(2, 9), Vector(2, 10), Vector(7)))
  }

  test("empty input") {
    assert(Maximality.filterMaximal(Nil).isEmpty)
  }

  test("negative vertex ids are rejected") {
    intercept[IllegalArgumentException](Maximality.filterMaximal(Seq(Array(1, 2), Array(-3, 4))))
  }
}
