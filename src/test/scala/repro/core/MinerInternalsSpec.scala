package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph, NearThreshold, TestGraphs}
import repro.gthinker.{ASplit, ATime}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Properties of the miner's internal pruning machinery, validated against
  * exhaustive search on small instances.
  */
class MinerInternalsSpec extends AnyFunSuite {

  private def newMiner(g: LocalGraph, gamma: Double, tau: Int,
                       out: ArrayBuffer[Array[Int]] = ArrayBuffer.empty,
                       config: MinerConfig = MinerConfig.quickPlus): Miner =
    new Miner(g, gamma, tau, arr => { out += arr; () }, config)

  // ------------------------------------------------------ cover vertex P7

  // n = 12 fits one 64-bit word of the miner's bitset rows; the others
  // straddle word boundaries
  for (seed <- 1 to 8) test(s"cover-vertex theorem holds empirically (seed=$seed)") {
    for (n <- Seq(12, 63, 64, 65, 130)) {
      // Theorem (P7): for any γ-QC Q built from S plus ONLY vertices of
      // C_S(u), Q ∪ {u} is also a γ-QC — so Q is never maximal.
      val rnd = new Random(seed)
      val g = TestGraphs.erdosRenyi(n, 0.6 + 0.2 * rnd.nextDouble(), seed * 13 + (if (n == 12) 0 else n))
      val gamma = Seq(0.6, 0.75, 0.9)(rnd.nextInt(3))
      val perm = rnd.shuffle((0 until g.n).toList)
      val s = perm.take(1 + rnd.nextInt(3)).toArray
      val ext = perm.slice(s.length, s.length + 7).toArray
      val miner = newMiner(g, gamma, 2)
      val cover = miner.coverSetFor(ArrayBuffer.from(s), ArrayBuffer.from(ext))
      // Eq 9 over adjacency lists: the first u in ext order with the largest C_S(u)
      val sSet = s.toSet
      def dS(x: Int): Int = g.adj(x).count(sSet)
      val cg = QuasiClique.ceilGamma(gamma, s.length)
      val expected = ext.filter(u => dS(u) >= cg && s.forall(v => g.hasEdge(u, v) || dS(v) >= cg))
        .map(u => g.adj(u).filter(w => ext.contains(w) && s.forall(v => g.hasEdge(u, v) || g.hasEdge(v, w))).toSeq)
        .foldLeft(Seq.empty[Int])((best, c) => if (c.length > best.length) c else best)
      assert(Option(cover).fold(Seq.empty[Int])(_.toSeq) == expected, s"n=$n s=${s.toSeq} ext=${ext.toSeq}")
      if (cover != null && cover.nonEmpty) {
        // u = the vertex whose cover set was returned: recover it by checking
        // each candidate; the property must hold for whichever u generated it,
        // so verify the weaker universal form — every QC from S ∪ C is
        // extendable by SOME ext vertex adjacent to all of C
        val coverSet = cover.toSet
        var mask = 1
        while (mask < (1 << cover.length)) {
          val z = cover.indices.filter(i => (mask & (1 << i)) != 0).map(cover)
          val q = (s ++ z).sorted
          if (BruteForce.isQuasiClique(g, q, gamma)) {
            val extendable = ext.exists(u => !coverSet.contains(u) && !q.contains(u) &&
              BruteForce.isQuasiClique(g, (q :+ u).sorted, gamma))
            assert(extendable, s"n=$n QC ${q.toSeq} from cover set is not extendable: cover=${cover.toSeq} s=${s.toSeq}")
          }
          mask += 1
        }
      }
    }
  }

  // --------------------------------------------------- diameter shrink P1

  // The paper preset filters by the plain 2-hop row (P1); the default one
  // by rule A's pair row, checked further down.
  for (seed <- 1 to 6) test(s"diameterShrink keeps exactly the 2-hop reachable ext vertices (seed=$seed)") {
    // average degree 3 at every n; n > 64 spans several bitset words
    for (n <- Seq(20, 63, 64, 65, 130)) {
      val g = TestGraphs.erdosRenyi(n, 3.0 / n, seed * 7 + (if (n == 20) 0 else n))
      val rnd = new Random(seed)
      val perm = rnd.shuffle((0 until g.n).toList)
      val v = perm.head
      val ext = perm.tail.take(n / 2)
      val miner = newMiner(g, 0.9, 2, config = MinerConfig.quickPlusPaper)
      val got = miner.diameterShrink(ArrayBuffer.from(ext), v)
      val expect = ext.filter { u =>
        g.hasEdge(u, v) || g.adj(u).exists(w => g.hasEdge(w, v))
      }
      assert(got.toSeq == expect, s"n=$n v=$v")
    }
  }

  // The miner caches the 2-hop reach row of v the first time v branches;
  // later calls for v read the cache. One miner, many calls per v, with
  // different ext subsets and orders and the vs interleaved, so a row
  // cached for the wrong vertex or word shows up as a wrong filter.
  for (seed <- 1 to 3) test(s"diameterShrink reads the right cached 2-hop row on repeated calls (seed=$seed)") {
    for (n <- Seq(63, 64, 65, 130)) {
      val g = TestGraphs.erdosRenyi(n, 3.0 / n, seed * 5 + n)
      val rnd = new Random(seed * 1000 + n)
      val miner = newMiner(g, 0.9, 2, config = MinerConfig.quickPlusPaper)
      val vs = rnd.shuffle((0 until n).toList).take(8)
      for (_ <- 1 to 6; v <- rnd.shuffle(vs)) {
        val ext = rnd.shuffle((0 until n).filter(_ != v).toList).take(1 + rnd.nextInt(n - 1))
        val expect = ext.filter(u => g.hasEdge(u, v) || g.adj(u).exists(w => g.hasEdge(w, v)))
        assert(miner.diameterShrink(ArrayBuffer.from(ext), v).toSeq == expect, s"n=$n v=$v")
      }
    }
  }

  /** Rule A's pair row of v, from adjacency lists: the u with at least
    * f − 2 common neighbours with v if adjacent and f if not (floored at
    * 0 and 1), f the least pair bound of a result of τ..n vertices.
    */
  private def pairFilter(g: LocalGraph, gamma: Double, tau: Int, v: Int, ext: Seq[Int]): Seq[Int] = {
    val f = QuasiClique.minPairBound(gamma, tau, g.n)
    val nv = g.adj(v).toSet
    ext.filter { u =>
      val common = g.adj(u).count(nv)
      if (g.hasEdge(u, v)) common >= math.max(0, f - 2) else common >= math.max(1, f)
    }
  }

  // graphs dense enough that a pair has about 4 common neighbours, near
  // rule A's thresholds, so the rows keep some 2-hop vertices and drop others
  private def pairGraph(n: Int, seed: Int): LocalGraph = TestGraphs.erdosRenyi(n, math.sqrt(4.0 / n), seed)
  private val pairParams = Seq((0.75, 8), (0.9, 6), (0.6, 12))

  for (seed <- 1 to 6) test(s"diameterShrink keeps rule A's pair row (seed=$seed)") {
    var kept2Hop, dropped2Hop = 0
    for (n <- Seq(20, 63, 64, 65, 130); (gamma, tau) <- pairParams) {
      val g = pairGraph(n, seed * 7 + n)
      val rnd = new Random(seed)
      val perm = rnd.shuffle((0 until g.n).toList)
      val v = perm.head
      val ext = perm.tail.take(n / 2)
      val got = newMiner(g, gamma, tau).diameterShrink(ArrayBuffer.from(ext), v)
      val expect = pairFilter(g, gamma, tau, v, ext)
      assert(got.toSeq == expect, s"n=$n v=$v gamma=$gamma tau=$tau")
      val twoHop = ext.count(u => g.hasEdge(u, v) || g.adj(u).exists(w => g.hasEdge(w, v)))
      kept2Hop += expect.length; dropped2Hop += twoHop - expect.length
    }
    assert(kept2Hop > 0 && dropped2Hop > 0, s"kept $kept2Hop and dropped $dropped2Hop 2-hop vertices")
  }

  for (seed <- 1 to 3) test(s"diameterShrink re-reads cached pair rows (seed=$seed)") {
    for (n <- Seq(63, 64, 65, 130); (gamma, tau) <- pairParams) {
      val g = pairGraph(n, seed * 5 + n)
      val rnd = new Random(seed * 1000 + n)
      val miner = newMiner(g, gamma, tau)
      val vs = rnd.shuffle((0 until n).toList).take(8)
      for (_ <- 1 to 6; v <- rnd.shuffle(vs)) {
        val ext = rnd.shuffle((0 until n).filter(_ != v).toList).take(1 + rnd.nextInt(n - 1))
        assert(miner.diameterShrink(ArrayBuffer.from(ext), v).toSeq == pairFilter(g, gamma, tau, v, ext),
          s"n=$n v=$v gamma=$gamma tau=$tau")
      }
    }
  }

  for (seed <- 1 to 4) test(s"recursiveMine == brute force on vertices placed across bitset word boundaries (seed=$seed)") {
    val compact = TestGraphs.erdosRenyi(14, 0.6, seed * 31)
    // ids straddling 63/64 and 127/128 in a graph padded with isolated vertices
    val ids = Array(60, 61, 62, 63, 64, 65, 66, 124, 125, 126, 127, 128, 129, 130)
    val edges = compact.packedEdges.map(e => LocalGraph.pack(ids(LocalGraph.unpackU(e)), ids(LocalGraph.unpackV(e))))
    val padded = LocalGraph.fromEdges(140, edges)
    for (gamma <- Seq(0.6, 0.75, 0.9)) {
      val out = ArrayBuffer.empty[Array[Int]]
      newMiner(padded, gamma, 3, out).recursiveMine(ArrayBuffer.empty[Int], ArrayBuffer.from(ids))
      val got = Maximality.filterMaximal(out.toSeq).map(_.toVector).toSet
      val expect = BruteForce.allMaximal(compact, gamma, 3).map(_.map(ids).toVector).toSet
      assert(got == expect, s"gamma=$gamma missing=${(expect -- got).take(3)} extra=${(got -- expect).take(3)}")
    }
  }

  // --------------------------------- decomposition preserves completeness

  /** The engine's two spawning policies for a task over a whole graph of n
    * vertices: A_split at the root, and A_time already past its timeout.
    */
  private def spawnRules(n: Int): Seq[(String, Int => Boolean)] = Seq(
    "A_split" -> ASplit.spawnRule(n, tauSplit = 0, System.nanoTime),
    "A_time"  -> ATime(0.0).spawnRule(n, tauSplit = 0, System.nanoTime - 1000000000L))

  /** Runs the single traversal with `rule` deciding where to spawn, completes
    * every spawned child with the plain recursive miner, and checks that the
    * maximal results equal those of `recursiveMine` over the whole graph.
    */
  private def assertSpawningComplete(g: LocalGraph, gamma: Double, policy: String,
                                     rule: Int => Boolean): Unit = {
    val tau = 4
    val full = ArrayBuffer.empty[Array[Int]]
    newMiner(g, gamma, tau, full).recursiveMine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n))

    val split = ArrayBuffer.empty[Array[Int]]
    val pending = ArrayBuffer.empty[(Array[Int], Array[Int])]
    newMiner(g, gamma, tau, split).mine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n), rule,
      (s, e) => { pending += ((s, e)); () })
    // children are completed with the plain recursive miner
    while (pending.nonEmpty) {
      val (s, e) = pending.remove(pending.length - 1)
      newMiner(g, gamma, tau, split).recursiveMine(ArrayBuffer.from(s), ArrayBuffer.from(e))
    }

    val fullMax  = Maximality.filterMaximal(full.toSeq).map(_.toVector).toSet
    val splitMax = Maximality.filterMaximal(split.toSeq).map(_.toVector).toSet
    assert(fullMax == splitMax, s"$policy gamma=$gamma missing=${(fullMax -- splitMax).take(3)} extra=${(splitMax -- fullMax).take(3)}")
  }

  // A_split at the task root (the one-level decomposition)
  for (seed <- 1 to 6) test(s"decomposeOneLevel + child recursion == recursiveMine (seed=$seed)") {
    val g = TestGraphs.erdosRenyi(14, 0.55, seed * 11)
    for ((policy, rule) <- spawnRules(g.n)) assertSpawningComplete(g, 0.7, policy, rule)
  }

  // A_time with an immediate timeout: every surviving branch is spawned
  for (seed <- 1 to 6) test(s"timeDelayed with immediate timeout + child recursion == recursiveMine (seed=$seed)") {
    val g = TestGraphs.erdosRenyi(14, 0.55, seed * 19)
    for ((policy, rule) <- spawnRules(g.n)) assertSpawningComplete(g, 0.75, policy, rule)
  }

  test("A_split spawns nothing when |ext| <= tau_split and nothing below depth 0") {
    val small = ASplit.spawnRule(extSize = 10, tauSplit = 10, 0L)
    val big   = ASplit.spawnRule(extSize = 11, tauSplit = 10, 0L)
    assert((0 to 5).forall(d => !small(d)))
    assert(big(0) && (1 to 5).forall(d => !big(d)))

    val g = TestGraphs.erdosRenyi(14, 0.55, 11)
    def run(rule: Int => Boolean): (Seq[Int], Int) = {
      val asked = ArrayBuffer.empty[Int]
      var spawned = 0
      newMiner(g, 0.7, 4).mine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n),
        d => { asked += d; rule(d) }, (_, _) => spawned += 1)
      (asked.toSeq, spawned)
    }
    val (askedSmall, spawnedSmall) = run(ASplit.spawnRule(g.n, tauSplit = g.n, 0L))
    assert(spawnedSmall == 0)
    assert(askedSmall.exists(_ > 0), "the search must recurse below the root")
    val (askedBig, spawnedBig) = run(ASplit.spawnRule(g.n, tauSplit = g.n - 1, 0L))
    assert(spawnedBig > 0)
    assert(askedBig.forall(_ == 0) && askedBig.length == spawnedBig)
  }

  test("a spawning search past its deadline throws DeadlineExceeded") {
    val g = TestGraphs.erdosRenyi(14, 0.55, 11)
    for ((policy, rule) <- spawnRules(g.n)) {
      val miner = new Miner(g, 0.7, 4, _ => (), MinerConfig.quickPlus, null, System.nanoTime - 1)
      intercept[Miner.DeadlineExceeded] {
        miner.mine(ArrayBuffer.empty[Int], ArrayBuffer.from(0 until g.n), rule, (_, _) => ())
      }
    }
  }

  // The search reads the clock on its first branch and then on every 64th,
  // so a cap that falls during the search still ends it promptly.
  test("mineSerial with a deadline that falls mid-search returns timedOut promptly") {
    val hyves = GraphGen.hyvesLike()
    val t0 = System.nanoTime
    val out = QuickPlus.mineSerial(hyves.graph, hyves.gamma, hyves.tauSize, capMillis = 1)
    val wallMillis = (System.nanoTime - t0) / 1e6
    assert(out.timedOut)
    assert(wallMillis < 2000, s"a 1 ms cap took $wallMillis ms")
  }

  // a cap whose deadline does not fit in a Long saturates instead of wrapping
  test("mineSerial with a cap of Long.MaxValue / 2 ms runs to the end") {
    val d = GraphGen.gse1730Like()
    val capped = QuickPlus.mineSerial(d.graph, d.gamma, d.tauSize, capMillis = Long.MaxValue / 2)
    assert(!capped.timedOut)
    val uncapped = QuickPlus.mineSerial(d.graph, d.gamma, d.tauSize)
    assert(uncapped.maximal.nonEmpty)
    assert(capped.maximal.map(_.toVector) == uncapped.maximal.map(_.toVector))
  }

  // ------------------------------------------ derived bounding state

  /** Mines g as `mineSerial` does (prelude, one miner per ego task), with
    * every miner in checked mode if `checked`: it compares each derived or
    * updated frame state with a full recompute and throws on a difference.
    * Returns the candidates in emission order, the widest task's vertex
    * count and the children the miners derived.
    */
  private def perTaskMine(g: LocalGraph, gamma: Double, tau: Int, config: MinerConfig,
                          checked: Boolean): (Seq[Vector[Int]], Int, Long) = {
    val mg = TaskSpawn.prelude(g, gamma, tau, recode = config.isQuickPlus)
    val out = ArrayBuffer.empty[Vector[Int]]
    var widest = 0; var derived = 0L
    for ((task, taskIds) <- TaskSpawn.egoTasks(mg)) {
      widest = math.max(widest, task.n)
      val miner = new Miner(task, gamma, tau, arr => { out += QuasiClique.canon(arr.map(x => mg.ids(taskIds(x)))).toVector; () }, config)
      miner.checkState = checked
      miner.recursiveMine(ArrayBuffer(0), ArrayBuffer.from(1 until task.n))
      derived += miner.derived
    }
    (out.toSeq, widest, derived)
  }

  private def assertCheckedRunMatches(g: LocalGraph, gamma: Double, tau: Int, label: String): Int =
    Seq(MinerConfig.quickPlus, MinerConfig.quickPlusPaper, MinerConfig.quick).map { config =>
      val (checked, widest, _) = perTaskMine(g, gamma, tau, config, checked = true)
      val plain = QuickPlus.mineSerial(g, gamma, tau, config).candidates.map(_.toVector)
      assert(checked == plain, s"$label $config: checked run emitted other candidates")
      widest
    }.max

  for (seed <- 1 to 20) test(s"derived bounding state equals a recompute on planted near-threshold graphs (seed=$seed)") {
    val g = NearThreshold.graph(seed)
    for (gamma <- Seq(0.6, 0.7, 0.75, 0.8, 0.9); tau <- Seq(4, 5, 6))
      assertCheckedRunMatches(g, gamma, tau, s"planted(seed=$seed) gamma=$gamma tau=$tau")
  }

  // tasks wider than 64 (Hyves-like: up to 94) and 128 vertices keep S,
  // ext and every row in two and three words
  test("derived bounding state equals a recompute on multi-word tasks (Hyves-like, ER n=150)") {
    val hyves = GraphGen.hyvesLike()
    assert(assertCheckedRunMatches(hyves.graph, hyves.gamma, hyves.tauSize, "Hyves-like") > 64)
    for (seed <- 1 to 2) {
      val g = TestGraphs.erdosRenyi(150, 0.1, seed)
      assert(assertCheckedRunMatches(g, 0.75, 5, s"ER(150, 0.1, $seed)") > 128)
    }
  }

  // Rules A and B must keep cutting the search. With both, Hyves-like
  // derives 28,132 children against the paper preset's 97,617 (0.29×) and
  // Enron-like 9,533 against 41,034 (0.23×). With rule A off Hyves-like
  // derives 0.39× and Enron-like 0.45×; with rule B off Hyves-like 0.75×.
  // So the bound of a third fails when either rule is switched off.
  test("rules A and B cut derived children to a third") {
    for (d <- Seq(GraphGen.hyvesLike(), GraphGen.enronLike())) {
      val (_, _, paper) = perTaskMine(d.graph, d.gamma, d.tauSize, MinerConfig.quickPlusPaper, checked = false)
      val (_, _, rules) = perTaskMine(d.graph, d.gamma, d.tauSize, MinerConfig.quickPlus, checked = false)
      assert(paper > 0 && rules * 3 <= paper, s"${d.name}: $rules children with rules A and B, $paper without")
    }
  }

  // The search tree of each preset as a fingerprint: its candidates (count
  // and an order-sensitive hash) and its derived children, summed over the
  // ego tasks. A prune that fires less, more or elsewhere changes them even
  // where the maximal sets stay the same; DESIGN.md's mutation table names
  // the prune mutants only this test kills. A deliberate change to the
  // search updates these values.
  private val searchFingerprints = Map(
    ("GSE1730-like", "quickPlus") -> (86, 352314652, 2392L),
    ("GSE1730-like", "quickPlusPaper") -> (92, 1546064501, 3324L),
    ("GSE1730-like", "quick") -> (97, -788311273, 3986L),
    ("GSE10158-like", "quickPlus") -> (53, -1113246038, 9642L),
    ("GSE10158-like", "quickPlusPaper") -> (53, -1113246038, 22320L),
    ("GSE10158-like", "quick") -> (61, -1994936460, 28770L),
    ("CaGrQc-like", "quickPlus") -> (131, 1182059810, 3L),
    ("CaGrQc-like", "quickPlusPaper") -> (131, 1182059810, 1854L),
    ("CaGrQc-like", "quick") -> (146, -241567603, 27821L),
    ("Enron-like", "quickPlus") -> (154, -1473007511, 9533L),
    ("Enron-like", "quickPlusPaper") -> (155, 622503202, 41034L),
    ("Enron-like", "quick") -> (110, -1316686646, 147356L),
    ("Hyves-like", "quickPlus") -> (30, 1085934956, 28132L),
    ("Hyves-like", "quickPlusPaper") -> (30, 1085934956, 97617L),
    ("Hyves-like", "quick") -> (23, -121752519, 624955L),
    // Quick's one critical vertex per pass shows in its search tree only on
    // denser inputs like this one
    ("ER(24, 0.5) gamma=0.5 tau=6", "quick") -> (12415, -746248732, 177735L))

  test("each preset's candidates and derived children match their fingerprints") {
    val presets = Seq("quickPlus" -> MinerConfig.quickPlus, "quickPlusPaper" -> MinerConfig.quickPlusPaper,
      "quick" -> MinerConfig.quick)
    val inputs = (for (d <- Seq(GraphGen.gse1730Like(), GraphGen.gse10158Like(), GraphGen.caGrQcLike(),
                               GraphGen.enronLike(), GraphGen.hyvesLike()); (name, config) <- presets)
      yield (d.name, name, d.graph, d.gamma, d.tauSize, config)) :+
      (("ER(24, 0.5) gamma=0.5 tau=6", "quick", TestGraphs.erdosRenyi(24, 0.5, 314211), 0.5, 6, MinerConfig.quick))
    for ((label, name, g, gamma, tau, config) <- inputs) {
      val (candidates, _, derived) = perTaskMine(g, gamma, tau, config, checked = false)
      // Arrays.hashCode of the candidates in emission order, each ended by -1
      val orderHash = java.util.Arrays.hashCode(candidates.flatMap(_ :+ -1).toArray)
      assert((candidates.size, orderHash, derived) == searchFingerprints((label, name)), s"$label $name")
    }
  }

  // ---------------------------------------------------- iterativeBounding

  // A false return is a fixpoint with |S| + |ext| >= τ_size: a smaller state
  // is pruned before any rule runs, even one that no rule would prune (a
  // clique at γ = 1), and is left as it was.
  test("iterativeBounding prunes a state smaller than tau_size at once") {
    val clique = TestGraphs.erdosRenyi(8, 1.1, 0)
    for (tau <- 4 to 8; extLen <- 0 to tau - 3) {
      val s = ArrayBuffer(0, 1); val ext = ArrayBuffer.range(2, 2 + extLen)
      assert(newMiner(clique, 1.0, tau).iterativeBounding(s, ext), s"tau=$tau |ext|=$extLen")
      assert(s == ArrayBuffer(0, 1) && ext == ArrayBuffer.range(2, 2 + extLen), s"tau=$tau |ext|=$extLen")
    }
    // at |S| + |ext| = τ_size the clique is a fixpoint and survives
    val s = ArrayBuffer(0, 1); val ext = ArrayBuffer.range(2, 6)
    assert(!newMiner(clique, 1.0, 6).iterativeBounding(s, ext))
  }

  // Both Quick+ presets: the default adds rule B to the Type-I pass's first
  // rules (those that read d_S alone).
  for (seed <- 1 to 8) test(s"iterativeBounding never prunes away a reachable valid quasi-clique (seed=$seed)") {
    val rnd = new Random(seed)
    val g = TestGraphs.erdosRenyi(12, 0.65, seed * 23)
    val gamma = 0.7; val tau = 3
    val perm = rnd.shuffle((0 until g.n).toList)
    val s0 = perm.take(2).toArray.sorted
    val ext0 = perm.slice(2, 10).toArray
    // truth: all valid QCs Q with s0 ⊆ Q ⊆ s0 ∪ ext0, |Q| >= tau
    val truthAll = BruteForce.allValid(g, gamma, tau).map(_.toVector)
      .filter(q => s0.forall(q.contains) && q.forall(v => s0.contains(v) || ext0.contains(v)))
    for (config <- Seq(MinerConfig.quickPlus, MinerConfig.quickPlusPaper)) {
      val out = ArrayBuffer.empty[Array[Int]]
      val miner = newMiner(g, gamma, tau, out, config)
      val sB = ArrayBuffer.from(s0); val eB = ArrayBuffer.from(ext0)
      val pruned = miner.iterativeBounding(sB, eB)
      if (!pruned) {
        // everything reachable must still be reachable: S grew only by forced
        // (critical) vertices and ext lost only provably useless vertices
        val sSet = sB.toSet; val eSet = eB.toSet
        truthAll.foreach { q =>
          // any maximal-size valid target either contains the forced vertices
          // or was output already during bounding
          val stillReachable = sSet.subsetOf(q.toSet) && q.forall(v => sSet.contains(v) || eSet.contains(v))
          val alreadyOut = out.exists(_.toVector == q)
          val dominated = truthAll.exists(t => t.size > q.size && q.toSet.subsetOf(t.toSet))
          assert(stillReachable || alreadyOut || dominated,
            s"$config: valid QC $q lost by bounding: S=${sB.toSeq} ext=${eB.toSeq}")
        }
      }
    }
  }
}
