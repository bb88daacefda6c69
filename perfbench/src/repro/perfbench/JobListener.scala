package repro.perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** Spark jobs and tasks of one traced call, for the engine's layer
  * breakdown. Times are epoch milliseconds as Spark reports them.
  *
  * The listener bus delivers events asynchronously, so `start` and `stop`
  * wait until every event posted so far has been delivered: events of an
  * earlier job are not recorded, and those of the traced call's last round
  * are not dropped.
  */
final class JobListener extends SparkListener {
  import JobListener._

  @volatile private var active = false
  private val jobs  = ArrayBuffer.empty[JobRec]
  private val tasks = ArrayBuffer.empty[TaskRec]

  override def onJobStart(e: SparkListenerJobStart): Unit = if (active) synchronized {
    jobs += JobRec(e.jobId, e.time, -1L, e.stageIds)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    val i = jobs.indexWhere(_.id == e.jobId)
    if (i >= 0) jobs(i) = jobs(i).copy(endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = if (active && e.taskMetrics != null) synchronized {
    val m = e.taskMetrics; val ti = e.taskInfo
    tasks += TaskRec(e.stageId, ti.launchTime, ti.finishTime, m.executorRunTime,
      m.executorDeserializeTime + m.resultSerializationTime, ti.gettingResultTime,
      m.resultSize, m.shuffleWriteMetrics.bytesWritten)
  }

  /** Starts recording once the events of earlier jobs have been delivered. */
  def start(sc: SparkContext): Unit = {
    org.apache.spark.PerfbenchBus.waitUntilEmpty(sc)
    synchronized { jobs.clear(); tasks.clear() }
    active = true
  }

  /** Stops recording once every event posted so far has been delivered, and
    * returns what was recorded.
    */
  def stop(sc: SparkContext): (Seq[JobRec], Seq[TaskRec]) = {
    org.apache.spark.PerfbenchBus.waitUntilEmpty(sc)
    active = false
    synchronized {
      val out = (jobs.sortBy(_.startMs).toSeq, tasks.toSeq)
      jobs.clear(); tasks.clear()
      out
    }
  }
}

object JobListener {
  final case class JobRec(id: Int, startMs: Long, endMs: Long, stageIds: Seq[Int])
  final case class TaskRec(stageId: Int, launchMs: Long, finishMs: Long, runMs: Long,
                           serdeMs: Long, gettingResultMs: Long, resultBytes: Long, shuffleBytes: Long) {
    /** Time the task spent launched but neither running nor (de)serializing. */
    def schedDelayMs: Long = {
      val fetch = if (gettingResultMs > 0) finishMs - gettingResultMs else 0L
      math.max(0L, finishMs - launchMs - runMs - serdeMs - fetch)
    }
  }
}
