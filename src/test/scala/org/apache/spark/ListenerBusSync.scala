package org.apache.spark

/** The listener bus is private to Spark. A test that counts a call's jobs
  * with a listener waits here until every event posted so far has been
  * delivered, so that it neither counts earlier jobs nor misses the call's last.
  */
object ListenerBusSync {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
