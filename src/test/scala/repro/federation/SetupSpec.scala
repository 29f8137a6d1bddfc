package repro.federation

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestFixtures}
import repro.core.{BlockClusterEval, Clustering, InMemoryClusterEval, SparkClusterEval, Tensor}
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
    assert(setup.eval.isInstanceOf[SparkClusterEval])
    assert(cached.eval.isInstanceOf[BlockClusterEval])
    // same content regardless of storage
    val a = setup.clustered.select(setup.clustered.columns.sorted.map(col): _*)
      .collect().map(_.toString).sorted
    val b = cached.clustered.select(cached.clustered.columns.sorted.map(col): _*)
      .collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("parquet layout is partitioned by provider and cluster (pruning works)") {
    val dir = java.nio.file.Files.createTempDirectory("repro-setup-prune-").toString
    Setup.build(spark, Datasets.adultRaw(spark, 5000, seed = 7L),
      Datasets.adultDims.map(_.name), nProviders = 2, clusterFrac = 0.02,
      FedConfig(nMin = 4), Storage.Parquet(Some(dir)), seed = 9L)
    val p0 = new java.io.File(s"$dir/${Clustering.ProviderCol}=0")
    assert(p0.isDirectory, "expected provider partition directories")
    assert(p0.listFiles().exists(_.getName.startsWith(s"${Clustering.ClusterCol}=")),
      "expected nested cluster partition directories")
  }

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
