package repro.core

import java.nio.file.Files

import scala.jdk.CollectionConverters._
import scala.util.Using

import org.apache.commons.io.FileUtils
import org.apache.hadoop.fs.Path
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.metadata.BlockMetaData
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.data.Datasets
import repro.federation.{Setup, Storage}

/** Physical per-cluster evaluation: the parquet page reader, block and
  * in-memory implementations agree with each other, with brute force, and
  * with the DuckDB oracle.
  */
class ClusterEvalSpec extends SparkSpec {

  private lazy val fed = TestFixtures.adultSmall
  /** The same federation as `fed`, stored as parquet. */
  private lazy val parquetFed = Setup.build(spark, Datasets.adultRaw(spark, 20000, seed = 11L),
    Datasets.adultDims.map(_.name), nProviders = 4, clusterFrac = 0.01, TestFixtures.cfg,
    Storage.Parquet(), seed = 42L, skewProviders = true)
  /** The parquet page reader over `fed`'s rows. */
  private lazy val sparkEval = parquetFed.eval
  private lazy val memEval = InMemoryClusterEval.fromDataFrame(fed.clustered, fed.dims)
  private lazy val blockEval = BlockClusterEval.fromDataFrame(fed.clustered, fed.dims)
  private def evals: Seq[ClusterEval] = Seq(sparkEval, memEval, blockEval)

  private val q2 = RangeQuery(Agg.Count, Seq(DimRange("age", 20, 50), DimRange("edu", 3, 12)))
  private val qSum = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 25, 70)))

  test("exactTotal matches the DuckDB oracle (COUNT)") {
    val got = fed.clustered.filter(q2.predicate).agg(sum(q2.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q2, "t"), "t" -> fed.clustered)
    assert(sparkEval.exactTotal(q2) == got.head.getDouble(0))
  }

  test("exactTotal matches the DuckDB oracle (SUM)") {
    val got = fed.clustered.filter(qSum.predicate).agg(sum(qSum.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(qSum, "t"), "t" -> fed.clustered)
    assert(sparkEval.exactTotal(qSum) == got.head.getDouble(0))
  }

  test("Spark and in-memory exactTotal agree on random queries") {
    val rng = new scala.util.Random(3)
    for (_ <- 1 to 10) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4),
        if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)
      assert(sparkEval.exactTotal(q) == memEval.exactTotal(q), s"query $q")
    }
  }

  /** 10 random COUNT/SUM queries, each with a random sample of clusters
    * from a random subset of providers: each of `others` agrees with the
    * Spark and in-memory evaluators on `perCluster` and `exactTotal`.
    */
  private def agreesOnRandomQueries(others: Seq[ClusterEval], seed: Int): Unit = {
    val rng = new scala.util.Random(seed)
    for (_ <- 1 to 10) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4),
        if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)
      val sampled = fed.metas.filter(_ => rng.nextDouble() < 0.8).map { m =>
        m.providerId -> rng.shuffle(m.clusters.map(_.clusterId)).take(1 + rng.nextInt(8))
      }.toMap
      val expected = memEval.perCluster(sampled, q)
      for (e <- sparkEval +: others) {
        assert(e.perCluster(sampled, q) == expected, s"$e: query $q, sample $sampled")
        assert(e.exactTotal(q) == memEval.exactTotal(q), s"$e: query $q")
      }
    }
  }

  test("block evaluation agrees with Spark and in-memory evaluation on random queries") {
    agreesOnRandomQueries(Seq(blockEval), seed = 5)
  }

  test("block evaluation agrees when clusters are split across partitions") {
    val spread = fed.clustered.repartition(7).cache()
    val partsPerCluster = spread
      .select(col(Clustering.ProviderCol), col(Clustering.ClusterCol), spark_partition_id().as("part"))
      .distinct().groupBy(Clustering.ProviderCol, Clustering.ClusterCol).count()
    assert(partsPerCluster.filter(col("count") > 1).count() > 0, "expected split clusters")
    // the rows of a split cluster reach the in-memory collect apart
    agreesOnRandomQueries(Seq(BlockClusterEval.fromDataFrame(spread, fed.dims),
      InMemoryClusterEval.fromDataFrame(spread, fed.dims)), seed = 6)
    spread.unpersist()
  }

  test("parquet evaluation agrees with in-memory and DuckDB on random queries") {
    val pq = parquetFed
    assert(pq.eval.isInstanceOf[ParquetClusterEval])
    val mem = InMemoryClusterEval.fromDataFrame(pq.clustered, pq.dims)
    val rng = new scala.util.Random(7)
    // providers draw from one pool of ids, so they often sample the same id;
    // up to 16 ids per provider, so some filters list more than 10
    val pool = pq.metas.map(_.clusters.size).min
    val samples = Map(0 -> Seq(3, 7), 1 -> Seq(3, 7), 2 -> Seq(3)) +: Seq.fill(9) {
      pq.metas.filter(m => m.providerId < 2 || rng.nextDouble() < 0.6).map { m =>
        m.providerId -> rng.shuffle((0 until pool).toList).take(1 + rng.nextInt(16))
      }.toMap
    }
    for (sampled <- samples) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(3),
        if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)
      val got = pq.eval.perCluster(sampled, q)
      val total = pq.eval.exactTotal(q)
      assert(got == mem.perCluster(sampled, q), s"query $q, sample $sampled")
      assert(total == mem.exactTotal(q), s"query $q")
      import spark.implicits._
      val rows = got.toSeq.filter(_._2 != 0.0).map { case ((p, c), v) => (p, c, v) } :+ ((-1, -1, total))
      Oracle.assertEquivalent(rows.toDF("p", "c", "answer"),
        s"${Oracle.perClusterSql(q, sampled, "t")} UNION ALL SELECT -1, -1, answer FROM (${Oracle.sql(q, "t")})",
        "t" -> pq.clustered)
    }
  }

  test("perCluster agrees between Spark and in-memory evaluation") {
    val sampled = Map(0 -> Seq(0, 1, 2, 5), 1 -> Seq(0, 3))
    assert(sparkEval.perCluster(sampled, q2) == memEval.perCluster(sampled, q2))
    assert(sparkEval.perCluster(sampled, qSum) == memEval.perCluster(sampled, qSum))
  }

  test("perCluster matches brute-force per-cluster filtering") {
    val sampled = Map(0 -> Seq(1, 4), 2 -> Seq(0, 2))
    val got = sparkEval.perCluster(sampled, q2)
    for ((p, cs) <- sampled; c <- cs) {
      val expected = fed.clustered
        .filter(col(Clustering.ProviderCol) === p && col(Clustering.ClusterCol) === c && q2.predicate)
        .count().toDouble
      assert(got((p, c)) == expected, s"provider $p cluster $c")
    }
  }

  test("perCluster reports 0 for sampled clusters with no matching rows") {
    // a query matching nothing: age below the domain
    val qNone = RangeQuery(Agg.Count, Seq(DimRange("age", 1, 5)))
    for (e <- evals) {
      assert(e.perCluster(Map(0 -> Seq(0, 1)), qNone) == Map((0, 0) -> 0.0, (0, 1) -> 0.0), e)
      assert(e.exactTotal(qNone) == 0.0, e)
    }
  }

  test("perCluster reports 0 for requested clusters that do not exist") {
    val sampled = Map(0 -> Seq(100000), 9 -> Seq(0))
    for (e <- evals) assert(e.perCluster(sampled, q2) == Map((0, 100000) -> 0.0, (9, 0) -> 0.0), e)
  }

  test("perCluster result keys exactly mirror the request") {
    val sampled = Map(0 -> Seq(0, 7), 1 -> Seq(2), 3 -> Seq(1, 2, 3))
    val expectedKeys = for ((p, cs) <- sampled.toSeq; c <- cs) yield (p, c)
    for (e <- evals) assert(e.perCluster(sampled, q2).keySet == expectedKeys.toSet, e)
  }

  test("empty sample yields an empty result") {
    for (e <- evals) {
      assert(e.perCluster(Map.empty, q2).isEmpty, e)
      assert(e.perCluster(Map(0 -> Seq.empty), q2).isEmpty, e)
    }
  }

  test("perCluster over all providers' covering clusters sums to exactTotal") {
    val covering = fed.metas.map(m => m.providerId -> m.coveringClusters(q2).map(_.clusterId)).toMap
    assert(memEval.perCluster(covering, q2).values.sum == memEval.exactTotal(q2))
    assert(sparkEval.perCluster(covering, q2).values.sum == sparkEval.exactTotal(q2))
    assert(blockEval.perCluster(covering, q2).values.sum == blockEval.exactTotal(q2))
  }

  test("page reads agree with in-memory evaluation when clusters straddle pages and row groups") {
    // `fed`'s rows, one sorted file per provider, in row groups of a few
    // dozen rows and plain-encoded pages of at most 64 bytes and 12 rows
    // (below S): 12 rows of each INT32 column, 8 of the INT64 measure
    val pageRows = 12
    assert(fed.S > 2 * pageRows, s"S = ${fed.S}")
    val dir = Files.createTempDirectory("repro-pages-")
    for (m <- fed.metas)
      fed.clustered.filter(col(Clustering.ProviderCol) === m.providerId).coalesce(1)
        .sortWithinPartitions(Clustering.ClusterCol)
        .write.mode("append")
        .option("parquet.block.size", 1024L)
        .option("parquet.block.size.row.check.min", 10L)
        .option("parquet.block.size.row.check.max", 10L)
        .option("parquet.enable.dictionary", false)
        .option("parquet.page.size", 64L)
        .option("parquet.page.row.count.limit", pageRows.toLong)
        .option("parquet.page.size.row.check.min", 1L)
        .option("parquet.page.size.row.check.max", 1L)
        .parquet(dir.toString)
    val store = spark.read.parquet(dir.toString)
    val conf = spark.sparkContext.hadoopConfiguration
    for (f <- store.inputFiles)
      Using.resource(ParquetFileReader.open(HadoopInputFile.fromPath(new Path(f), conf))) { r =>
        val groups = r.getFooter.getBlocks.asScala.toSeq
        def chunk(g: BlockMetaData, c: String) = g.getColumns.asScala.find(_.getPath.toDotString == c).get
        val ids = groups.map(g => chunk(g, Clustering.ClusterCol).getStatistics)
        assert(ids.sliding(2).exists { case Seq(a, b) => a.genericGetMax == b.genericGetMin },
          s"$f: no cluster straddles two of its ${groups.size} row groups")
        def pageStarts(c: String) = groups.map { g =>
          val index = r.readOffsetIndex(chunk(g, c))
          (0 until index.getPageCount).map(index.getFirstRowIndex)
        }
        assert(pageStarts(Clustering.ClusterCol) != pageStarts(Tensor.MeasureCol),
          s"$f: ${Clustering.ClusterCol} and ${Tensor.MeasureCol} pages start at the same rows")
      }
    val eval = ParquetClusterEval.fromStore(store)
    val nRows = fed.metas.flatMap(m => m.clusters.map(c => (m.providerId, c.clusterId) -> c.nRows)).toMap
    val rng = new scala.util.Random(8)
    // provider 9 has no file, cluster 100000 does not exist, and the first
    // random sample lists more than 10 ids for every provider
    val samples = Map.empty[Int, Seq[Int]] +: Map(0 -> Seq.empty[Int], 9 -> Seq(0)) +:
      Seq.tabulate(10) { i =>
        fed.metas.filter(_ => i == 0 || rng.nextDouble() < 0.8).map { m =>
          m.providerId -> (100000 +: rng.shuffle(m.clusters.map(_.clusterId))
            .take(if (i == 0) 11 + rng.nextInt(6) else 1 + rng.nextInt(16)))
        }.toMap
      }
    for (sampled <- samples) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4),
        if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)
      val before = eval.rowsDecoded
      assert(eval.perCluster(sampled, q) == memEval.perCluster(sampled, q), s"query $q, sample $sampled")
      // a sampled cluster's pages hold at most pageRows - 1 rows of other
      // clusters at each end
      val keys = ClusterEval.keysOf(sampled).flatMap(nRows.get)
      val read = eval.rowsDecoded - before
      assert(read >= keys.sum && read <= keys.map(_ + 2 * (pageRows - 1)).sum, s"read $read rows")
      assert(eval.exactTotal(q) == memEval.exactTotal(q), s"query $q")
    }
    FileUtils.deleteDirectory(dir.toFile)
  }
}
