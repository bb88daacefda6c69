package repro.gthinker

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import scala.reflect.ClassTag

/** One task queue per executor JVM for the partitions of a round, the
  * paper's per-machine global queue. Each running partition registers its
  * placed bucket, mines its own tasks in bucket order and then, while
  * another running partition of the same round still has an unstarted
  * placed task, claims it and mines it with its own `mine` (work stealing,
  * Blumofe & Leiserson, JACM 1999, at the grain of a placed task and its
  * whole subtree). The thief hands the outcome back to the bucket's owner,
  * which returns the outcomes of its whole bucket, in bucket order, once
  * the last of them has arrived.
  *
  * So an owner's output does not depend on who mined what, no other
  * partition's output ever carries a stolen task, and a retried owner mines
  * its bucket again from the start: a result or a count is never shipped
  * twice. A partition steals only from partitions that have started, so
  * more partitions than running cores still finish, a wave at a time.
  */
private[gthinker] final class StealPool[T, O: ClassTag] {

  /** A running partition: its bucket, the next unclaimed index of it, and
    * the outcomes delivered so far (by the owner or by thieves).
    */
  private final class Member(val part: Int, val tasks: Array[T]) {
    private val next = new AtomicInteger
    private val outcomes = new Array[O](tasks.length)
    private var done = 0
    private var failure: Throwable = null

    /** The index of an unclaimed task, now the caller's, or -1. */
    def claim(): Int = {
      var i = next.get
      while (i < tasks.length && !next.compareAndSet(i, i + 1)) i = next.get
      if (i < tasks.length) i else -1
    }
    def unclaimed: Int = tasks.length - next.get

    def deliver(i: Int, o: O): Unit = synchronized { outcomes(i) = o; done += 1; notifyAll() }
    def fail(e: Throwable): Unit = synchronized { if (failure == null) failure = e; notifyAll() }

    /** Every outcome in bucket order, once all have arrived. A thief's
      * failure is rethrown; an interrupt (a killed Spark task) ends the wait
      * with `InterruptedException`.
      */
    def await(): Array[O] = synchronized {
      while (done < tasks.length && failure == null) wait()
      if (failure != null) throw new IllegalStateException(s"a task stolen from partition $part failed", failure)
      outcomes
    }
  }

  /** The running members of each round, by partition. Guarded by `this`. */
  private val rounds = mutable.HashMap.empty[(Int, Int), mutable.Map[Int, Member]]

  /** Mine `tasks`, partition `part`'s bucket of `round`, and any unstarted
    * task of the round's other running partitions, with `mine`; return
    * `mine`'s outcome for each of `tasks`, in order. An exception in a
    * stolen task is rethrown both here and in the owner.
    */
  def run(round: (Int, Int), part: Int, tasks: Array[T])(mine: T => O): Array[O] = {
    val me = new Member(part, tasks)
    synchronized { rounds.getOrElseUpdate(round, mutable.Map.empty)(part) = me }
    try {
      var i = me.claim()
      while (i >= 0) { me.deliver(i, mine(tasks(i))); i = me.claim() }
      var s = steal(round, me)
      while (s.nonEmpty) {
        val (v, j) = s.get
        val o = try mine(v.tasks(j)) catch { case e: Throwable => v.fail(e); throw e }
        v.deliver(j, o)
        s = steal(round, me)
      }
      me.await()
    } finally synchronized {
      rounds.get(round).foreach { ms =>
        if (ms.get(part).exists(_ eq me)) ms -= part
        if (ms.isEmpty) rounds -= round
      }
    }
  }

  /** A claimed task of the running member of `round` with the most
    * unclaimed tasks, other than `me`, or None when none has any.
    */
  @annotation.tailrec
  private def steal(round: (Int, Int), me: Member): Option[(Member, Int)] = {
    val victim = synchronized {
      rounds.get(round).flatMap(_.valuesIterator.filter(m => (m ne me) && m.unclaimed > 0).maxByOption(_.unclaimed))
    }
    victim match {
      case None => None
      case Some(v) =>
        val j = v.claim()
        if (j >= 0) Some((v, j)) else steal(round, me) // its owner took the last one first
    }
  }

  /** The rounds with a running member. */
  private[gthinker] def activeRounds: Int = synchronized(rounds.size)
}
