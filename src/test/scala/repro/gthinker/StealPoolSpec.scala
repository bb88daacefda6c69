package repro.gthinker

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite

/** The executor-local task queue of a round, without Spark: owners and
  * thieves are plain threads, a task is an `Int` and its outcome a pure
  * function of it.
  */
class StealPoolSpec extends AnyFunSuite {

  private val Round = (7, 0)

  /** Runs `body(i)` on thread i for each i < k, all started together, and
    * returns what each returned or threw.
    */
  private def onThreads[A](k: Int)(body: Int => A): IndexedSeq[Either[Throwable, A]] = {
    val go = new CountDownLatch(1)
    val out = new Array[Either[Throwable, A]](k)
    val threads = (0 until k).map { i =>
      val t = new Thread(() => {
        go.await()
        out(i) = try Right(body(i)) catch { case e: Throwable => Left(e) }
      })
      t.start(); t
    }
    go.countDown()
    threads.foreach(_.join(60000))
    assert(threads.forall(!_.isAlive), "a member of the round never returned")
    out.toIndexedSeq
  }

  test("k owners over k buckets: each task is claimed once, each owner gets a serial run's outcomes in bucket order") {
    val k = 4
    // bucket 0 holds most of the work, so the others run dry and steal from it
    val buckets = Array.tabulate(k)(b => Array.tabulate(if (b == 0) 40 else 3)(i => 1000 * b + i))
    def outcome(t: Int): Long = t.toLong * t + 1
    val minedBy = new ConcurrentHashMap[Int, Int]
    val claims = new ConcurrentHashMap[Int, Integer]
    val pool = new StealPool[Int, Long]
    val got = onThreads(k) { b =>
      pool.run(Round, b, buckets(b)) { t =>
        claims.merge(t, 1, (a: Integer, c: Integer) => Integer.valueOf(a + c))
        minedBy.put(t, b)
        Thread.sleep(1)
        outcome(t)
      }
    }
    for (b <- 0 until k) assert(got(b).map(_.toSeq) == Right(buckets(b).toSeq.map(outcome)), s"owner $b")
    val all = buckets.flatten
    assert(all.forall(t => claims.get(t) == 1), "a task was mined twice or never")
    assert(claims.size == all.length)
    assert(buckets(0).exists(t => minedBy.get(t) != 0), "no task was stolen: the check would show nothing")
    assert(pool.activeRounds == 0)
  }

  test("an exception in a stolen task reaches its owner, which rethrows instead of waiting") {
    val pool = new StealPool[Int, Int]
    val ownerMining, badTaken = new CountDownLatch(1)
    val boom = new RuntimeException("boom")
    // task 0 holds the owner until the thief has taken task 1, which throws
    def mine(t: Int): Int = t match {
      case 0 => ownerMining.countDown(); assert(badTaken.await(30, TimeUnit.SECONDS)); 0
      case 1 => badTaken.countDown(); throw boom
      case _ => t
    }
    var ownerGot: Either[Throwable, Array[Int]] = null
    val owner = new Thread(() => ownerGot = try Right(pool.run(Round, 0, Array(0, 1))(mine)) catch { case e: Throwable => Left(e) })
    owner.start()
    assert(ownerMining.await(30, TimeUnit.SECONDS))
    val thiefGot = try Right(pool.run(Round, 1, Array.empty[Int])(mine)) catch { case e: Throwable => Left(e) }
    owner.join(30000)
    assert(!owner.isAlive, "the owner waits forever for a failed stolen task")
    assert(thiefGot == Left(boom), "the thief rethrows its own failure")
    ownerGot match {
      case Left(e) => assert(e.getCause eq boom, e)
      case Right(_) => fail("the owner returned without the failed task's outcome")
    }
    assert(pool.activeRounds == 0)
  }

  test("an owner interrupted while it waits for a thief ends with InterruptedException") {
    val pool = new StealPool[Int, Int]
    val ownerMining, stolen, release = new CountDownLatch(1)
    // the owner mines task 0 until the thief has taken task 1, which then
    // runs until it is released
    def mine(t: Int): Int = {
      if (t == 0) { ownerMining.countDown(); assert(stolen.await(30, TimeUnit.SECONDS)) }
      else { stolen.countDown(); assert(release.await(30, TimeUnit.SECONDS)) }
      t
    }
    var ownerGot: Either[Throwable, Array[Int]] = null
    val owner = new Thread(() => ownerGot = try Right(pool.run(Round, 0, Array(0, 1))(mine)) catch { case e: Throwable => Left(e) })
    owner.start()
    assert(ownerMining.await(30, TimeUnit.SECONDS))
    var thiefGot: Either[Throwable, Array[Int]] = null
    val thief = new Thread(() => thiefGot = try Right(pool.run(Round, 1, Array.empty[Int])(mine)) catch { case e: Throwable => Left(e) })
    thief.start()
    // the owner waits for task 1 once its own task is done; a kill interrupts it there
    val deadline = System.nanoTime + TimeUnit.SECONDS.toNanos(30)
    def waitsForThief = owner.getState == Thread.State.WAITING &&
      owner.getStackTrace.exists(f => f.getClassName.endsWith("StealPool$Member") && f.getMethodName == "await")
    while (!waitsForThief) { assert(System.nanoTime < deadline, "the owner never waited"); Thread.sleep(1) }
    owner.interrupt()
    owner.join(30000)
    assert(!owner.isAlive, "an interrupted owner kept waiting")
    assert(ownerGot.left.toOption.exists(_.isInstanceOf[InterruptedException]), ownerGot)
    release.countDown()
    thief.join(30000)
    assert(thiefGot.map(_.toSeq) == Right(Nil))
    assert(pool.activeRounds == 0)
  }
}
