package repro.federation

import java.nio.file.{Files, Path}
import java.util.Comparator
import java.util.concurrent.ConcurrentHashMap

import scala.util.Using

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._

/** How the clustered federated tensor is materialized, and so which
  * evaluator scans it.
  *
  *  - [[Storage.Parquet]]: one parquet file per provider, its rows sorted
  *    by `cluster_id` with one page per cluster, read back;
  *    [[repro.core.ParquetClusterEval]]'s sampled-cluster scans run no
  *    Spark job: one driver thread per provider decodes only the pages of
  *    its sampled clusters, chosen by their column-index statistics (real
  *    I/O saving — used by the paper-figure benches).
  *    Without a `dir`, the store goes to a fresh temporary directory that
  *    is deleted when the JVM exits; a given `dir` is never deleted;
  *  - [[Storage.Cached]]: kept as a cached DataFrame, plus per-cluster
  *    column blocks in Spark's memory that [[repro.core.BlockClusterEval]]
  *    scans, reading only the partitions that hold sampled clusters (fast
  *    to set up — used by unit tests, the attack table and the cached
  *    benchmark workload).
  */
sealed trait Storage
object Storage {
  final case class Parquet(dir: Option[String] = None) extends Storage
  case object Cached                                    extends Storage
}

/** Everything `Setup.build` produces: the live protocol objects plus the
  * physical artifacts tests and benches need to poke at.
  */
final case class FederationSetup(federation: Federation, eval: ClusterEval,
                                 clustered: DataFrame, dims: Seq[String], S: Int,
                                 metas: Seq[ProviderMetadata]) {
  /** Build an in-memory evaluator over the same clustered tensor, for
    * harnesses that replay many protocol runs without Spark jobs.
    */
  def inMemory(cfg: FedConfig): Federation =
    new Federation(metas, InMemoryClusterEval.fromDataFrame(clustered, dims), cfg)
}

/** Offline phase of the paper (§5.2) as one Spark dataflow: horizontal
  * partitioning across providers, per-provider count-tensor construction,
  * cluster (page) assignment, materialization, and Algorithm 1 metadata.
  */
object Setup {

  /** @param raw          raw rows with integer dimension columns
    * @param dims         tensor dimensions `D^a`
    * @param nProviders   number of data providers (paper uses 4)
    * @param clusterFrac  S as a fraction of the average provider-local
    *                     tensor size (paper: 1% Adult, 0.5% Amazon)
    * @param skewProviders when true, rows with high first-dimension values
    *                     concentrate on low provider ids, so the global
    *                     (distribution-aware) allocation visibly matters
    * @param seed         drives the provider split only; everything else is
    *                     deterministic given the data
    */
  def build(spark: SparkSession, raw: DataFrame, dims: Seq[String], nProviders: Int,
            clusterFrac: Double, cfg: FedConfig, storage: Storage,
            seed: Long = 42L, skewProviders: Boolean = false): FederationSetup = {
    require(nProviders >= 1)
    require(clusterFrac > 0 && clusterFrac <= 1)

    // 1. horizontal partitioning: provider_id per raw row
    val withProvider =
      if (!skewProviders) {
        raw.withColumn(Clustering.ProviderCol,
          least(lit(nProviders - 1), floor(rand(seed) * nProviders)).cast("int"))
      } else {
        val d0 = dims.head
        val stats = raw.agg(min(col(d0)).cast("double"), max(col(d0)).cast("double")).head
        val (lo, hi) = (stats.getDouble(0), stats.getDouble(1))
        val span = math.max(hi - lo, 1.0)
        // shape exponent grows with d0, biasing high-d0 rows to provider 0
        val shaped = pow(rand(seed), lit(1.0) + (col(d0).cast("double") - lo) / span * lit(3.0))
        raw.withColumn(Clustering.ProviderCol,
          least(lit(nProviders - 1), floor(shaped * nProviders)).cast("int"))
      }

    // 2. per-provider count tensor, built in one pass
    val tensor = Tensor.fromRows(withProvider, Clustering.ProviderCol +: dims)

    // 3. common cluster size S from the average provider tensor size; a
    //    provider that received no rows has no count, and gets no metadata
    val counts = tensor.groupBy(col(Clustering.ProviderCol)).agg(count(lit(1)).as("n"))
      .collect().map(r => r.getInt(0) -> r.getLong(1)).sortBy(_._1)
    val providerIds = counts.map(_._1).toSeq
    val avgRows = counts.map(_._2).sum.toDouble / math.max(1, counts.length)
    val S = math.max(1, math.round(clusterFrac * avgRows).toInt)

    val assigned = Clustering.assignPerProvider(tensor, dims, S)

    // 4. materialize
    val clustered = storage match {
      case Storage.Cached =>
        // kept beside the blocks: serving Algorithm 1's reads from a view over
        // the blocks gave equal answers but a 43 % slower set-up at 20k rows
        val df = assigned.cache(); df.count(); df
      case Storage.Parquet(dirOpt) =>
        val dir = dirOpt.getOrElse(TempStores.create().toString)
        writeByProvider(spark, assigned, providerIds, S, dir)
        spark.read.parquet(dir)
    }

    // 5. Algorithm 1 metadata, per provider
    val metas = providerIds.map { pid =>
      Metadata.build(
        clustered.filter(col(Clustering.ProviderCol) === pid), dims, S, pid)
    }

    val eval = storage match {
      case Storage.Cached     => BlockClusterEval.fromDataFrame(clustered, dims)
      case _: Storage.Parquet => ParquetClusterEval.fromStore(clustered)
    }
    FederationSetup(new Federation(metas, eval, cfg), eval, clustered, dims, S, metas)
  }

  /** Write the clustered tensor as one parquet file per provider, holding
    * only that provider's rows sorted by `cluster_id`, with `provider_id` a
    * data column. Every cluster but a provider's last has exactly `S` rows,
    * so pages of `S` rows start at cluster boundaries, and each page's
    * column-index statistics name one `(provider, cluster)`: a
    * sampled-cluster filter skips the other clusters' pages.
    */
  private def writeByProvider(spark: SparkSession, assigned: DataFrame, providerIds: Seq[Int],
                              S: Int, dir: String): Unit = {
    // the provider providerIds(i) lands in partition i (an Int hashes to
    // itself), so no partition is empty and no empty file is written
    val index = providerIds.zipWithIndex.toMap
    val byProvider = assigned.rdd
      .keyBy(r => index(r.getAs[Int](Clustering.ProviderCol)))
      .partitionBy(new HashPartitioner(providerIds.size))
      .values
    spark.createDataFrame(byProvider, assigned.schema)
      .sortWithinPartitions(Clustering.ClusterCol)
      .write
      .mode("overwrite")
      .option("parquet.page.row.count.limit", S.toLong)
      // a page ends only where the writer checks its size: first after this
      // many rows (default 100), then at every S rows
      .option("parquet.page.size.row.check.min", math.min(S, 100).toLong)
      .parquet(dir)
  }
}

/** Temporary parquet stores made by [[Setup.build]], deleted by one
  * shutdown hook when the JVM exits.
  */
private[federation] object TempStores {
  private val dirs = ConcurrentHashMap.newKeySet[Path]()

  sys.addShutdownHook(dirs.forEach(delete))

  def create(): Path = {
    val dir = Files.createTempDirectory("repro-fed-").toAbsolutePath
    dirs.add(dir)
    dir
  }

  /** Delete `dir` if [[create]] made it; leave any other directory alone. */
  def delete(dir: Path): Unit =
    if (dirs.remove(dir) && Files.exists(dir))
      Using.resource(Files.walk(dir)) { paths =>
        paths.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.deleteIfExists(p))
      }
}
