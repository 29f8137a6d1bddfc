package repro.bench

import repro.SparkSpec
import repro.federation.Storage
import repro.harness.Tables

/** Shared bench-scale federations, built once per bench JVM.
  *
  * Scale (DESIGN.md §4/§5): the paper ran 4M-row Adult and 924M-row Amazon
  * Review on a 5-server Grid5000 cluster; these benches run SF-scaled
  * versions (`Tables.AdultRows` = 1.6M / `Tables.AmazonRows` = 24M raw
  * rows) on one box with parquet-backed clusters, preserving Amazon ≫
  * Adult. Override with REPRO_BENCH_ADULT / REPRO_BENCH_AMAZON /
  * REPRO_BENCH_M.
  */
object BenchFixtures {
  private def env(name: String, default: Long): Long =
    sys.env.get(name).map(_.toLong).getOrElse(default)

  val adultRows: Long  = env("REPRO_BENCH_ADULT", Tables.AdultRows)
  val amazonRows: Long = env("REPRO_BENCH_AMAZON", Tables.AmazonRows)
  val attackRows: Long = env("REPRO_BENCH_ATTACK", 40000L)
  val m: Int           = env("REPRO_BENCH_M", 8L).toInt

  lazy val adult: Tables.Context =
    new Tables.Context(Tables.setupAdult(SparkSpec.shared, adultRows, Storage.Parquet()))

  lazy val amazon: Tables.Context =
    new Tables.Context(Tables.setupAmazon(SparkSpec.shared, amazonRows, Storage.Parquet()))
}
