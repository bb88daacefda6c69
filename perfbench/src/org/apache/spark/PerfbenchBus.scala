package org.apache.spark

/** The listener bus is private to Spark; the benchmark needs to know when a
  * job's events have all been delivered before it reads its listener.
  */
object PerfbenchBus {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
