package repro.federation

import java.nio.file.Path

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestFixtures}
import repro.core.{Agg, BlockClusterEval, Clustering, DimRange, InMemoryClusterEval,
  ParquetClusterEval, RangeQuery, Tensor}
import repro.data.Datasets

/** Offline-phase dataflow: provider split, tensor construction, common
  * cluster size, metadata consistency, and parquet materialization.
  */
class SetupSpec extends SparkSpec {

  private lazy val fed = TestFixtures.adultSmall

  test("all requested providers exist") {
    val ids = fed.clustered.select(Clustering.ProviderCol).distinct()
      .collect().map(_.getInt(0)).sorted
    assert(ids.toSeq == Seq(0, 1, 2, 3))
  }

  test("one metadata object per provider, ids aligned") {
    assert(fed.metas.map(_.providerId) == Seq(0, 1, 2, 3))
    assert(fed.metas.forall(_.S == fed.S))
  }

  test("total measure equals the raw row count (no rows lost in the split)") {
    val total = fed.clustered.agg(sum(Tensor.MeasureCol)).head.getLong(0)
    assert(total == 20000L)
  }

  test("cluster size S is ~1% of the average provider tensor") {
    val counts = fed.clustered.groupBy(Clustering.ProviderCol).count()
      .collect().map(_.getLong(1))
    val avg = counts.sum.toDouble / counts.length
    assert(fed.S == math.max(1, math.round(0.01 * avg).toInt))
  }

  test("metadata cluster counts match the physical clusters") {
    for (m <- fed.metas) {
      val physical = fed.clustered
        .filter(col(Clustering.ProviderCol) === m.providerId)
        .select(Clustering.ClusterCol).distinct().count()
      assert(m.clusters.size.toLong == physical, s"provider ${m.providerId}")
    }
  }

  test("skewed split produces unequal provider tensor sizes") {
    val counts = fed.clustered.groupBy(Clustering.ProviderCol).count()
      .collect().map(_.getLong(1))
    assert(counts.max.toDouble / counts.min > 1.1,
      s"expected imbalance, got ${counts.toSeq}")
  }

  test("uniform split produces roughly equal provider sizes") {
    val setup = Setup.build(spark, Datasets.adultRaw(spark, 8000, seed = 3L),
      Datasets.adultDims.map(_.name), nProviders = 4, clusterFrac = 0.02,
      FedConfig(nMin = 4), Storage.Cached, seed = 5L, skewProviders = false)
    val counts = setup.clustered.groupBy(Clustering.ProviderCol).count()
      .collect().map(_.getLong(1))
    assert(counts.max.toDouble / counts.min < 1.2, s"got ${counts.toSeq}")
  }

  test("parquet storage round-trips the clustered tensor") {
    val dir = java.nio.file.Files.createTempDirectory("repro-setup-test-").toString
    val setup = Setup.build(spark, Datasets.adultRaw(spark, 5000, seed = 7L),
      Datasets.adultDims.map(_.name), nProviders = 2, clusterFrac = 0.02,
      FedConfig(nMin = 4), Storage.Parquet(Some(dir)), seed = 9L)
    val cached = Setup.build(spark, Datasets.adultRaw(spark, 5000, seed = 7L),
      Datasets.adultDims.map(_.name), nProviders = 2, clusterFrac = 0.02,
      FedConfig(nMin = 4), Storage.Cached, seed = 9L)
    assert(setup.clustered.count() == cached.clustered.count())
    assert(setup.S == cached.S)
    // each store is scanned by its own evaluator
    assert(setup.eval.isInstanceOf[ParquetClusterEval])
    assert(cached.eval.isInstanceOf[BlockClusterEval])
    // same content regardless of storage
    val a = setup.clustered.select(setup.clustered.columns.sorted.map(col): _*)
      .collect().map(_.toString).sorted
    val b = cached.clustered.select(cached.clustered.columns.sorted.map(col): _*)
      .collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("one sorted parquet file per provider; one-cluster scans read <= 2S rows") {
    val setup = Setup.build(spark, Datasets.adultRaw(spark, 5000, seed = 7L),
      Datasets.adultDims.map(_.name), nProviders = 4, clusterFrac = 0.02,
      FedConfig(nMin = 4), Storage.Parquet(), seed = 9L)
    val entries = storeDir(setup).toFile.listFiles()
    assert(!entries.exists(_.isDirectory), "expected no partition directories")
    val files = entries.filter(_.getName.endsWith(".parquet")).map(_.getPath)
    assert(files.length <= 4)
    val providersPerFile = files.toSeq.map { f =>
      val rows = spark.read.parquet(f)
        .select(Clustering.ProviderCol, Clustering.ClusterCol).collect()
      val clusters = rows.map(_.getInt(1))
      assert(clusters.sameElements(clusters.sorted), s"$f is not sorted by cluster")
      rows.map(_.getInt(0)).distinct.toSeq
    }
    assert(providersPerFile.forall(_.size == 1), s"providers per file: $providersPerFile")
    assert(providersPerFile.flatten.sorted == Seq(0, 1, 2, 3))

    // a query matching every row, over one middle cluster of one provider
    val eval = setup.eval.asInstanceOf[ParquetClusterEval]
    def withRowsDecoded[A](body: => A): (A, Long) = {
      val before = eval.rowsDecoded
      val result = body
      (result, eval.rowsDecoded - before)
    }
    val all = RangeQuery(Agg.Count, Seq(DimRange("age", 17, 90)))
    val cluster = setup.metas(1).clusters(1)
    val (answer, read) = withRowsDecoded(eval.perCluster(Map(1 -> Seq(cluster.clusterId)), all))
    assert(answer == Map((1, cluster.clusterId) -> cluster.nRows.toDouble))
    assert(read >= cluster.nRows && read <= 2L * setup.S, s"read $read records, S = ${setup.S}")

    // more than 10 clusters, spread over the provider: only the sampled
    // clusters' pages are read
    val spread = setup.metas(1).clusters.grouped(3).map(_.head).take(12).toSeq
    assert(spread.size == 12)
    val (answers, readMany) = withRowsDecoded(eval.perCluster(Map(1 -> spread.map(_.clusterId)), all))
    assert(answers == spread.map(c => (1, c.clusterId) -> c.nRows.toDouble).toMap)
    assert(readMany == spread.map(_.nRows).sum, s"read $readMany records")
  }

  test("a store Setup.build made itself is deleted; a supplied dir is not") {
    val supplied = java.nio.file.Files.createTempDirectory("repro-setup-own-")
    def build(storage: Storage) = Setup.build(spark, Datasets.adultRaw(spark, 2000, seed = 7L),
      Datasets.adultDims.map(_.name), nProviders = 2, clusterFrac = 0.05,
      FedConfig(nMin = 4), storage, seed = 9L)
    val made = storeDir(build(Storage.Parquet()))
    assert(made.getFileName.toString.startsWith("repro-fed-"))
    TempStores.delete(made)
    assert(!java.nio.file.Files.exists(made))
    assert(storeDir(build(Storage.Parquet(Some(supplied.toString)))) == supplied)
    TempStores.delete(supplied)
    assert(java.nio.file.Files.exists(supplied.resolve("_SUCCESS")))
    FileUtils.deleteDirectory(supplied.toFile)
  }

  test("a provider that receives no rows gets no metadata and no parquet file") {
    import spark.implicits._
    // 6 raw rows over 8 providers: at least two providers receive none
    val raw = (0 until 6).map(i => (i, 2 * i)).toDF("x", "y")
    val q = RangeQuery(Agg.Count, Seq(DimRange("x", 0, 5)))
    for (storage <- Seq(Storage.Cached, Storage.Parquet())) {
      val setup = Setup.build(spark, raw, Seq("x", "y"), nProviders = 8, clusterFrac = 0.5,
        FedConfig(nMin = 4), storage, seed = 9L)
      val present = setup.clustered.select(Clustering.ProviderCol).distinct()
        .collect().map(_.getInt(0)).sorted.toSeq
      assert(present.size < 8)
      assert(setup.metas.map(_.providerId) == present, s"$storage")
      if (storage != Storage.Cached) {
        val providersPerFile = storeDir(setup).toFile.listFiles()
          .filter(_.getName.endsWith(".parquet"))
          .map(f => spark.read.parquet(f.getPath).select(Clustering.ProviderCol).distinct()
            .collect().map(_.getInt(0)).toSeq)
          .toSeq
        assert(providersPerFile.sortBy(_.headOption) == present.map(Seq(_)), s"$providersPerFile")
      }
      val noiseless = setup.federation.run(q, 0.5, Double.PositiveInfinity, useSmc = false, seed = 1L)
      assert(noiseless.answer == 6.0 && noiseless.exact == 6.0, s"$storage")
      assert(setup.federation.run(q, 0.5, 1.0, useSmc = false, seed = 2L).answer.isFinite)
    }
  }

  test("the parquet store gets no empty file when provider 0 receives no rows") {
    import spark.implicits._
    val setup = Setup.build(spark, Seq((3, 5)).toDF("x", "y"), Seq("x", "y"), nProviders = 4,
      clusterFrac = 0.5, FedConfig(nMin = 4), Storage.Parquet(), seed = 1L)
    assert(setup.metas.size == 1 && setup.metas.head.providerId != 0,
      s"seed 1 should send the row past provider 0: ${setup.metas.map(_.providerId)}")
    val files = storeDir(setup).toFile.listFiles().filter(_.getName.endsWith(".parquet"))
    assert(files.length == 1, files.map(_.getName).mkString(", "))
    assert(setup.eval.exactTotal(RangeQuery(Agg.Count, Seq(DimRange("x", 3, 3)))) == 1.0)
  }

  /** The directory `s`'s parquet store was read from. */
  private def storeDir(s: FederationSetup): Path =
    Path.of(new java.net.URI(s.clustered.inputFiles.head)).getParent

  test("inMemory federation mirrors the Spark federation's exact answers") {
    val memFed = fed.inMemory(TestFixtures.cfg)
    val mem = InMemoryClusterEval.fromDataFrame(fed.clustered, fed.dims)
    val rng = new scala.util.Random(11)
    for (_ <- 1 to 5) {
      val q = Datasets.randomQuery(Datasets.adultDims, 2, repro.core.Agg.Count, rng)
      assert(memFed.exactWithTime(q)._1 == fed.eval.exactTotal(q))
      assert(mem.exactTotal(q) == fed.eval.exactTotal(q))
    }
  }
}
