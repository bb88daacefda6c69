package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.graph.GraphGen
import repro.gthinker._

/** spark-submit entrypoint reproducing Table 7 (A_base / A_split / A_time
  * on all datasets). Usage: Table07Variants [datasetPrefix ...]
  */
object Table07Variants {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("table7").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val sc = spark.sparkContext
    val picks = if (args.isEmpty) GraphGen.all() else args.toSeq.map(a => GraphGen.all().find(_.name.startsWith(a)).get)
    println(f"${"Data"}%-15s ${"A_base(s)"}%10s ${"A_split(s)"}%11s ${"A_time(s)"}%10s ${"#Maximal"}%9s")
    for (d <- picks) {
      val base  = Engine.run(sc, d.graph, d.gamma, d.tauSize, ABase, EngineConfig(16, tauSplit = 50))
      val split = Engine.run(sc, d.graph, d.gamma, d.tauSize, ASplit, EngineConfig(16, tauSplit = 50))
      val time  = Engine.run(sc, d.graph, d.gamma, d.tauSize, ATime(100.0), EngineConfig(16, tauSplit = 50))
      println(f"${d.name}%-15s ${base.wallMillis / 1000}%10.2f ${split.wallMillis / 1000}%11.2f ${time.wallMillis / 1000}%10.2f ${time.numMaximal}%9d")
    }
    spark.stop()
  }
}
