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
    *
    * The inverted index is one primitive posting list per vertex id, in
    * arrays indexed by id, so it takes memory for the largest id plus one
    * `Int` per posting, and is probed without boxing. Ids must be
    * non-negative.
    */
  def filterMaximal(results: Seq[Array[Int]]): Seq[Array[Int]] = {
    val bySize = results.toArray
    Arrays.sort(bySize, bySizeThenLex)
    // inverted index: vertex v's posting list holds the positions in `kept`
    // of the kept sets that contain v, in postings(v)(0 until postLen(v))
    var maxId = -1
    bySize.foreach { s =>
      if (s.nonEmpty) {
        require(s(0) >= 0, s"vertex ids must be non-negative, got ${s(0)}")
        maxId = math.max(maxId, s(s.length - 1))
      }
    }
    val postings = new Array[Array[Int]](maxId + 1)
    val postLen  = new Array[Int](maxId + 1)
    val kept     = mutable.ArrayBuffer.empty[Array[Int]]

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
      // probe via the member with the shortest posting list
      var best = -1
      var i = 0
      while (i < s.length) {
        val v = s(i)
        if (postLen(v) == 0) { best = -1; i = s.length } // vertex never seen => no superset
        else {
          if (best < 0 || postLen(v) < postLen(best)) best = v
          i += 1
        }
      }
      var dominated = false
      if (best >= 0) {
        val list = postings(best)
        var j = 0
        while (!dominated && j < postLen(best)) {
          val big = kept(list(j))
          dominated = big.length > s.length && isSubsetOf(s, big)
          j += 1
        }
      }
      if (!dominated) {
        val at = kept.length
        kept += s
        i = 0
        while (i < s.length) {
          val v = s(i)
          if (postings(v) == null) postings(v) = new Array[Int](4)
          else if (postLen(v) == postings(v).length) postings(v) = Arrays.copyOf(postings(v), 2 * postLen(v))
          postings(v)(postLen(v)) = at
          postLen(v) += 1
          i += 1
        }
      }
    }
    kept.toSeq
  }
}
