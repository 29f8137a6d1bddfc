package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession bootstrap for the spark-submit entrypoints. */
object JobSession {
  def create(app: String): SparkSession = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // Spark's INFO lines, thousands per job run, would bury the printed table
    spark.sparkContext.setLogLevel("WARN")
    spark
  }

  /** Positional arg with default, so jobs run bare or parameterized. */
  def arg(args: Array[String], i: Int, default: Long): Long =
    if (args.length > i) args(i).toLong else default
}
