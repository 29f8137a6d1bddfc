package fedbench

import java.nio.file.Path

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{Agg, RangeQuery}
import repro.data.{Datasets, DimSpec}
import repro.federation.{FedConfig, Federation, Storage}
import repro.harness.Tables

/** One benchmark workload: how big its input is, how the federation is
  * stored and scanned, and the protocol parameters of its single
  * closed-loop client. Every workload uses the Amazon-like generator, the
  * skewed provider split, the paper's default configuration and ε = 1;
  * inputs derive from the run's seed.
  *
  * Queries go through `Setup.build`'s `SparkClusterEval`.
  *
  * @param parquet    the store is parquet partitioned by (provider, cluster);
  *                   otherwise a cached DataFrame
  */
final case class Workload(name: String, rawRows: Long, clusterFrac: Double,
                          parquet: Boolean, sr: Double, useSmc: Boolean) {

  def dims: Seq[DimSpec] = Datasets.amazonDims
  def cfg: FedConfig = Tables.DefaultCfg
  def eps: Double = 1.0
  def skewProviders: Boolean = true

  def raw(spark: SparkSession, rows: Long, seed: Long): DataFrame =
    Datasets.amazonRaw(spark, rows, seed)

  def storage(dir: Path): Storage =
    if (parquet) Storage.Parquet(Some(dir.toString)) else Storage.Cached

  /** Provider-split seed: disjoint from the generator's per-column seeds. */
  def splitSeed(seed: Long): Long = seed * 7919L + 500L

  /** 96 COUNT and 96 SUM qualifying 4-dim queries, interleaved so a cycle
    * through the set alternates the two aggregations.
    */
  def queries(fed: Federation, seed: Long): Vector[RangeQuery] = {
    val c = Datasets.qualifyingWorkload(fed, dims, 96, 4, Agg.Count, seed * 31L + 1L)
    val s = Datasets.qualifyingWorkload(fed, dims, 96, 4, Agg.SumMeasure, seed * 31L + 2L)
    c.zip(s).flatMap { case (a, b) => Seq(a, b) }.toVector
  }
}

object Workload {

  /** The paper's speed-up setting: parquet store scanned by Spark, sr = 5 %,
    * SMC release. S = 2 % of a provider tensor: the paper's Amazon runs used
    * 0.5 %, but set-up time grows with the partition-file count, and a
    * whole run, set-ups included, has to stay near a minute.
    */
  val amazonSparkSmc: Workload = Workload(
    name = "amazon_spark_smc", rawRows = 100000L, clusterFrac = 0.02, parquet = true,
    sr = 0.05, useSmc = true)

  /** A 20k-row federation kept as a cached DataFrame and scanned by Spark,
    * sr = 5 %, local-noise release: Spark's per-query job still dominates,
    * but no partition file is listed or opened.
    */
  val amazonSparkCached: Workload = Workload(
    name = "amazon_spark_cached", rawRows = 20000L, clusterFrac = 0.02, parquet = false,
    sr = 0.05, useSmc = false)

  val all: Seq[Workload] = Seq(amazonSparkSmc, amazonSparkCached)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}
