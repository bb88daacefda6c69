package repro.graph

import java.util.Random
import scala.collection.mutable

/** Deterministic synthetic analogues of the paper's 10 datasets (Table 3).
  *
  * The paper evaluates on real graphs (YouTube, Patent, Hyves, …) that we
  * cannot ship; per DESIGN.md we substitute generators that reproduce the
  * *structural* property every experiment depends on: a skewed background
  * (Chung-Lu power-law) plus planted dense regions whose edge density sits
  * near the γ threshold. Regions clearly above γ yield findable maximal
  * quasi-cliques; regions slightly below γ yield deep, nearly fruitless
  * searches — i.e. straggler tasks (Tables 1, 2, 7, 8, 10, 12–14).
  *
  * Every generator is a pure function of its seed.
  */
object GraphGen {

  /** A dataset = graph + the paper-style default mining parameters. */
  final case class Dataset(name: String, graph: LocalGraph, gamma: Double, tauSize: Int) {
    def k: Int = repro.core.QuasiClique.ceilGamma(gamma, tauSize - 1)
  }

  // ---------------------------------------------------------------- models

  /** Chung–Lu power-law graph: vertex weights w_i ∝ (i+1)^(-alpha); `m`
    * edges sampled by weight-proportional endpoint draws (dups dropped).
    */
  def chungLu(n: Int, avgDeg: Double, alpha: Double, seed: Long): Array[Long] = {
    val rnd = new Random(seed)
    val w   = new Array[Double](n)
    var i = 0
    while (i < n) { w(i) = math.pow(i + 1.0, -alpha); i += 1 }
    // cumulative weights for inverse-CDF sampling
    val cum = new Array[Double](n)
    var s = 0.0
    i = 0
    while (i < n) { s += w(i); cum(i) = s; i += 1 }
    val target = (n * avgDeg / 2).toLong
    val edges  = new mutable.HashSet[Long]
    def draw(): Int = {
      val x  = rnd.nextDouble() * s
      var lo = 0; var hi = n - 1
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (cum(mid) < x) lo = mid + 1 else hi = mid }
      lo
    }
    var attempts = 0L
    val maxAttempts = target * 20
    while (edges.size < target && attempts < maxAttempts) {
      val u = draw(); val v = draw()
      if (u != v) {
        val (a, b) = if (u < v) (u, v) else (v, u)
        edges += LocalGraph.pack(a, b)
      }
      attempts += 1
    }
    edges.toArray
  }

  /** Dense Erdős–Rényi block over `members` with edge probability p. */
  def denseBlock(members: Array[Int], p: Double, seed: Long): Array[Long] = {
    val rnd = new Random(seed)
    val out = Array.newBuilder[Long]
    var i = 0
    while (i < members.length) {
      var j = i + 1
      while (j < members.length) {
        if (rnd.nextDouble() < p) {
          val (a, b) = if (members(i) < members(j)) (members(i), members(j)) else (members(j), members(i))
          out += LocalGraph.pack(a, b)
        }
        j += 1
      }
      i += 1
    }
    out.result()
  }

  /** Overlapping-cliques collaboration model (Ca-GrQc analogue): `nCliques`
    * cliques of size in [minSz, maxSz] over shared vertices.
    */
  def overlappingCliques(n: Int, nCliques: Int, minSz: Int, maxSz: Int, seed: Long): Array[Long] = {
    val rnd = new Random(seed)
    val out = new mutable.HashSet[Long]
    var c = 0
    while (c < nCliques) {
      val sz      = minSz + rnd.nextInt(maxSz - minSz + 1)
      val members = Array.fill(sz)(rnd.nextInt(n)).distinct
      var i = 0
      while (i < members.length) {
        var j = i + 1
        while (j < members.length) {
          val u = members(i); val v = members(j)
          out += LocalGraph.pack(math.min(u, v), math.max(u, v))
          j += 1
        }
        i += 1
      }
      c += 1
    }
    out.toArray
  }

  /** rows × cols grid (USA-Road analogue: planar, max degree 4). */
  def grid(rows: Int, cols: Int): Array[Long] = {
    val out = Array.newBuilder[Long]
    var r = 0
    while (r < rows) {
      var c = 0
      while (c < cols) {
        val v = r * cols + c
        if (c + 1 < cols) out += LocalGraph.pack(v, v + 1)
        if (r + 1 < rows) out += LocalGraph.pack(v, v + cols)
        c += 1
      }
      r += 1
    }
    out.result()
  }

  /** Union of paths of length ~`pathLen` (kmer analogue: avg degree ~1). */
  def paths(n: Int, pathLen: Int, seed: Long): Array[Long] = {
    val rnd = new Random(seed)
    val out = Array.newBuilder[Long]
    var v = 0
    while (v < n) {
      val len = 1 + rnd.nextInt(pathLen)
      var i = 0
      while (i < len - 1 && v + i + 1 < n) { out += LocalGraph.pack(v + i, v + i + 1); i += 1 }
      v += len
    }
    out.result()
  }

  /** `count` disjoint blocks of `size` vertices drawn from `0 until n` by
    * `new Random(blockSeed)`; block i gets a `denseBlock` of density p with
    * seed `edgeSeed + i`.
    */
  private def planted(n: Int, count: Int, size: Int, p: Double, blockSeed: Long, edgeSeed: Long): Array[Long] = {
    val rnd  = new Random(blockSeed)
    val used = new mutable.HashSet[Int]
    Array.tabulate(count) { i =>
      val block = Array.fill(size) { var v = rnd.nextInt(n); while (!used.add(v)) v = rnd.nextInt(n); v }
      denseBlock(block, p, edgeSeed + i)
    }.flatten
  }

  private def build(n: Int, parts: Array[Long]*): LocalGraph =
    LocalGraph.fromEdges(n, parts.flatten.toArray)

  // ------------------------------------------------------------- datasets

  /** CX_GSE1730 analogue: small dense biological network. */
  def gse1730Like(seed: Long = 101): Dataset = {
    val n = 1000
    Dataset("GSE1730-like", build(n, chungLu(n, 8.0, 0.6, seed), planted(n, 3, 33, 0.96, seed, seed + 10)),
      gamma = 0.9, tauSize = 30)
  }

  /** CX_GSE10158 analogue. */
  def gse10158Like(seed: Long = 102): Dataset = {
    val n = 1600
    Dataset("GSE10158-like", build(n, chungLu(n, 7.0, 0.6, seed), planted(n, 3, 32, 0.88, seed, seed + 10)),
      gamma = 0.8, tauSize = 29)
  }

  /** Ca-GrQc analogue: overlapping author cliques -> many small results.
    * Most cliques are small (below the k-core threshold k=8); a minority of
    * larger ones survive, so the core shrinks sharply as in Table 3(b).
    */
  def caGrQcLike(seed: Long = 103): Dataset = {
    val n = 5000
    Dataset("CaGrQc-like",
      build(n,
        overlappingCliques(n, 1500, 3, 6, seed),        // bulk: tiny cliques
        overlappingCliques(n, 70, 9, 13, seed + 7),     // minority: core survivors
        chungLu(n, 1.5, 0.5, seed + 1)),
      gamma = 0.8, tauSize = 10)
  }

  /** Enron analogue: power-law email graph + planted communities; the
    * medium blocks sit at density ~γ so small (γ, τ_size) perturbations
    * change the result count steeply (Tables 5–6).
    */
  def enronLike(seed: Long = 104): Dataset = {
    val n = 20000
    Dataset("Enron-like",
      build(n, chungLu(n, 9.0, 0.55, seed),
        planted(n, 2, 26, 0.94, seed, seed + 10),
        planted(n, 2, 27, 0.89, seed + 77, seed + 70), // medium
        planted(n, 1, 60, 0.62, seed + 99, seed + 50)), // hard
      gamma = 0.9, tauSize = 23)
  }

  /** Amazon analogue: sparse co-purchase graph, low gamma. */
  def amazonLike(seed: Long = 105): Dataset = {
    val n = 50000
    Dataset("Amazon-like", build(n, chungLu(n, 5.5, 0.45, seed), planted(n, 2, 13, 0.78, seed, seed + 10)),
      gamma = 0.5, tauSize = 12)
  }

  /** Hyves analogue: larger social graph, several planted communities. */
  def hyvesLike(seed: Long = 106): Dataset = {
    val n = 80000
    Dataset("Hyves-like",
      build(n, chungLu(n, 4.0, 0.6, seed),
        planted(n, 5, 24, 0.94, seed, seed + 10),
        planted(n, 2, 26, 0.88, seed + 77, seed + 70), // medium
        // low: unlocks only near the bottom of the paper's γ sweep (0.86):
        // result count explodes there, as in Table 5's Hyves rows
        planted(n, 1, 30, 0.865, seed + 88, seed + 80),
        planted(n, 1, 70, 0.6, seed + 99, seed + 50)), // hard
      gamma = 0.9, tauSize = 22)
  }

  /** YouTube analogue: ONE very hard near-threshold region (the single
    * straggler task of Table 1) plus a few findable communities.
    */
  def youtubeLike(seed: Long = 107): Dataset = {
    val n = 100000
    Dataset("YouTube-like",
      build(n, chungLu(n, 5.0, 0.62, seed),
        planted(n, 3, 20, 0.97, seed, seed + 10),
        planted(n, 1, 100, 0.62, seed + 99, seed + 50)), // hard
      gamma = 0.9, tauSize = 18)
  }

  /** Patent analogue: SEVERAL hard regions (the many stragglers of
    * Table 2) plus findable communities.
    */
  def patentLike(seed: Long = 108): Dataset = {
    val n = 150000
    Dataset("Patent-like",
      build(n, chungLu(n, 6.0, 0.55, seed),
        planted(n, 4, 22, 0.97, seed, seed + 10),
        planted(n, 3, 25, 0.90, seed + 77, seed + 70), // medium
        planted(n, 4, 92, 0.62, seed + 99, seed + 50)), // hard
      gamma = 0.9, tauSize = 20)
  }

  /** kmer analogue: avg degree ~1 (paths) + tiny dense bits. */
  def kmerLike(seed: Long = 109): Dataset = {
    val n = 300000
    Dataset("kmer-like", build(n, paths(n, 6, seed), planted(n, 3, 11, 0.85, seed, seed + 10)),
      gamma = 0.5, tauSize = 10)
  }

  /** USA-Road analogue: grid (its 3-core is empty) + tiny planted bits. */
  def roadLike(seed: Long = 110): Dataset = {
    val rows = 500; val cols = 400; val n = rows * cols
    Dataset("USARoad-like", build(n, grid(rows, cols), planted(n, 2, 8, 0.85, seed, seed + 10)),
      gamma = 0.5, tauSize = 7)
  }

  /** All ten datasets in Table 3 order. */
  def all(): Seq[Dataset] = Seq(
    gse1730Like(), gse10158Like(), caGrQcLike(), enronLike(), amazonLike(),
    hyvesLike(), youtubeLike(), patentLike(), kmerLike(), roadLike())
}
