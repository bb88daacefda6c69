package repro.core

import java.util.{Arrays, Comparator}
import scala.collection.mutable

/** Post-processing phase: remove non-maximal quasi-cliques from the set of
  * valid ones emitted by the miner (Section 3, "postprocessing").
  *
  * The paper uses a prefix tree over result vertex sets; we use an inverted
  * vertex -> result index, probing each set's least-frequent member — same
  * asymptotic role (avoid the all-pairs subset test), simpler to verify.
  */
object Maximality {

  /** Size descending, then numeric lexicographic order. */
  private val bySizeThenLex: Comparator[Array[Int]] = (a, b) =>
    if (a.length != b.length) Integer.compare(b.length, a.length) else Arrays.compare(a, b)

  /** Deduplicate `results` (each a sorted vertex array) and keep only those
    * not strictly contained in another result. Output sorted by size
    * descending, then in numeric lexicographic order; duplicates are dropped
    * as adjacent equal arrays of that order.
    *
    * The sort takes a comparator on the primitive arrays, not a `sortBy`
    * key: `sortBy` recomputes its key on every comparison, so a key such as
    * `a.mkString(",")` builds O(n log n) strings per sort (and orders "2,10"
    * before "2,9").
    */
  def filterMaximal(results: Seq[Array[Int]]): Seq[Array[Int]] = {
    val bySize = results.toArray
    Arrays.sort(bySize, bySizeThenLex)
    val index  = new mutable.HashMap[Int, mutable.ArrayBuffer[Array[Int]]]
    val kept   = mutable.ArrayBuffer.empty[Array[Int]]

    def isSubsetOf(small: Array[Int], big: Array[Int]): Boolean = {
      if (small.length > big.length) return false
      var i = 0; var j = 0
      while (i < small.length && j < big.length) {
        if (small(i) == big(j)) { i += 1; j += 1 }
        else if (small(i) > big(j)) j += 1
        else return false
      }
      i == small.length
    }

    for (k <- bySize.indices if k == 0 || !Arrays.equals(bySize(k), bySize(k - 1))) {
      val s = bySize(k)
      // probe via the member with the smallest posting list
      var bestList: mutable.ArrayBuffer[Array[Int]] = null
      var i = 0
      while (i < s.length) {
        val l = index.getOrElse(s(i), null)
        if (l == null) { bestList = null; i = s.length } // vertex never seen => no superset
        else {
          if (bestList == null || l.length < bestList.length) bestList = l
          i += 1
        }
      }
      val dominated = bestList != null && bestList.exists(big => big.length > s.length && isSubsetOf(s, big))
      if (!dominated) {
        kept += s
        s.foreach(v => index.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += s)
      }
    }
    kept.toSeq
  }
}
