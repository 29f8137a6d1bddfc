package repro.jobs

import repro.federation.Storage
import repro.harness.Tables

/** spark-submit entry point for every paper table/figure:
  * `Run <T1|F1|F4|F5|F6|F8> [args]`, printing the table at the given scale.
  * Positional args after the id:
  *  - T1 (NBC attack): [rows]
  *  - F1 (SMC row vs result sharing): [maxRows]
  *  - F4, F5, F6 (dimension / sampling-rate / ε sweeps): [adultRows] [amazonRows] [m]
  *  - F8 (SMC vs DP release): [adultRows]
  */
object Run {
  private val Ids = Seq("T1", "F1", "F4", "F5", "F6", "F8")

  def main(args: Array[String]): Unit = {
    require(args.nonEmpty && Ids.contains(args(0)), s"usage: Run <${Ids.mkString("|")}> [args]")
    val id = args(0)
    def arg(i: Int, default: Long): Long = JobSession.arg(args, i + 1, default)
    val spark = JobSession.create(s"repro-$id")
    def adult() =
      new Tables.Context(Tables.setupAdult(spark, arg(0, Tables.AdultRows), Storage.Parquet()))

    val report = id match {
      case "T1" =>
        val (rows, control, majority) = Tables.attackAnalysis(spark, arg(0, 100000L))
        Tables.report(Tables.T1, rows, withPaper = false, Tables.attackBaselines(control, majority))
      case "F1" =>
        val sizes = Tables.rowSharingSizes(arg(0, Tables.AdultRows))
        Tables.report(Tables.F1, Tables.rowSharingSimulation(spark, sizes), withPaper = false)
      case "F8" =>
        Tables.report(Tables.F8, Tables.smcVsDp(adult()), withPaper = false)
      case _ =>
        val sweep = id match { case "F4" => Tables.F4; case "F5" => Tables.F5; case _ => Tables.F6 }
        val a = adult()
        val amazon = new Tables.Context(
          Tables.setupAmazon(spark, arg(1, Tables.AmazonRows), Storage.Parquet()))
        sweep.report(sweep.rows(a, amazon, arg(2, 10L).toInt), withPaper = false)
    }
    println(report)
    spark.stop()
  }
}
