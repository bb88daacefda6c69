package repro.gthinker

import org.apache.spark.{ListenerBusSync, SparkContext, TaskKilled}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd, SparkListenerTaskStart}
import repro.SparkSpec
import repro.SpecHelpers.canonSet
import repro.graph.{GraphGen, TestGraphs}
import scala.collection.mutable

/** Spark runs a task again when an attempt of it is killed, and drops the
  * killed attempt's result. The engine's results and its metric totals
  * travel in each partition's one `PartOut`, so a retried task must leave
  * the answer and every count exactly as an undisturbed run leaves them.
  */
class RetrySpec extends SparkSpec {

  /** Kills the first attempt of partition 0 in each job whose index is in
    * `targets` (0 = the first job started after the listener was added).
    * `killedJobs` holds the jobs whose kill landed: an attempt may finish
    * before its kill arrives, and then nothing is retried.
    * Listener events arrive on one thread; the lock publishes the sets.
    */
  private final class KillFirstAttempt(sc: SparkContext, targets: Set[Int]) extends SparkListener {
    private val jobOfStage = mutable.Map.empty[Int, Int]
    private var jobs = 0
    private val armed = mutable.Set.empty[Int] ++ targets
    private val killed = mutable.Set.empty[Int]

    def killedJobs: Set[Int] = synchronized(killed.toSet)

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      e.stageIds.foreach(jobOfStage(_) = jobs); jobs += 1
    }
    override def onTaskStart(e: SparkListenerTaskStart): Unit = synchronized {
      if (e.taskInfo.index == 0 && e.taskInfo.attemptNumber == 0 && armed.remove(jobOfStage(e.stageId)))
        sc.killTaskAttempt(e.taskInfo.taskId, interruptThread = true, reason = "forced retry")
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      e.reason match {
        case _: TaskKilled => killed += jobOfStage(e.stageId)
        case _             => ()
      }
    }
  }

  /** `body` run until one attempt was killed in each of its jobs `targets`
    * (at most 5 runs), and its value from that run.
    */
  private def withKills(targets: Set[Int])(body: => EngineResult): EngineResult = {
    val sc = spark.sparkContext
    var landed = Set.empty[Int]; var runs = 0; var result: EngineResult = null
    while (landed != targets) {
      assert(runs < 5, s"no kill landed in jobs ${targets -- landed} in 5 runs")
      ListenerBusSync.waitUntilEmpty(sc) // earlier jobs' events are not seen
      val killer = new KillFirstAttempt(sc, targets)
      sc.addSparkListener(killer)
      try { result = body; ListenerBusSync.waitUntilEmpty(sc) }
      finally sc.removeSparkListener(killer)
      landed = killer.killedJobs; runs += 1
    }
    result
  }

  private def assertSameRun(clean: EngineResult, retried: EngineResult): Unit = {
    assert(canonSet(retried.maximal) == canonSet(clean.maximal))
    assert(retried.numCandidates == clean.numCandidates)
    assert(retried.tasksProcessed == clean.tasksProcessed)
    assert(retried.subtasksSpawned == clean.subtasksSpawned)
    assert(retried.subtasksSpilled == clean.subtasksSpilled)
    assert(retried.rounds == clean.rounds)
  }

  test("a killed spawn task and a killed round task are retried without changing the answer or a count") {
    // at p = 1 the spawn job and the round are one Spark task each; A_split
    // spawns 62 children of the tasks with |ext| > 65, none of them with
    // |ext| >= 65, so nothing spills however long a subtree runs
    val d = GraphGen.hyvesLike()
    def run() = Engine.run(spark.sparkContext, d.graph, d.gamma, d.tauSize, ASplit, EngineConfig(1, tauSplit = 65))
    val clean = run()
    assert(clean.subtasksSpawned > 0 && clean.subtasksSpilled == 0 && clean.rounds == 1)
    assertSameRun(clean, withKills(Set(0, 1))(run()))
  }

  test("a killed task of a round of spilled subtasks is retried without changing the answer or a count") {
    // one task per vertex, ext = the vertices above it; with no spawn job O
    // is 0, so every subtask with |ext| >= 2 spills and the rounds, spawns
    // and spills do not depend on timing
    val g = TestGraphs.erdosRenyi(60, 0.35, 9)
    val tasks = Array.tabulate(g.n)(v => QCTask(Array(v), (v + 1 until g.n).toArray))
    def run() = Engine.runFromTasks(spark.sparkContext, g, Array.range(0, g.n), tasks, 0.7, 5, ASplit,
      EngineConfig(2, tauSplit = 2))
    val clean = run()
    assert(clean.rounds > 2 && clean.subtasksSpilled > 0 && clean.numCandidates > 0)
    // job 1 is round 2, whose tasks are round 1's spilled subtasks
    assertSameRun(clean, withKills(Set(1))(run()))
  }

  test("a killed round task that other partitions steal from is retried without changing the answer or a count") {
    // the first test's input at p = 4: nothing spills, so the one round's
    // counts do not depend on timing; partition 0 starts with the biggest
    // task, and the other three, done with their buckets, take its
    // unstarted tasks (and each other's) while it mines
    val d = GraphGen.hyvesLike()
    def run() = Engine.run(spark.sparkContext, d.graph, d.gamma, d.tauSize, ASplit, EngineConfig(4, tauSplit = 65))
    val clean = run()
    assert(clean.subtasksSpawned > 0 && clean.subtasksSpilled == 0 && clean.rounds == 1)
    // job 1 is the round
    assertSameRun(clean, withKills(Set(1))(run()))
  }
}
