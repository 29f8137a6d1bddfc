package repro.federation

import scala.util.Random

import repro.SparkSpec
import repro.core.{Agg, DimRange, RangeQuery}
import repro.dp.Laplace

/** Data-provider protocol steps on a controlled uniform fixture: summaries,
  * the N^min gate, EM sampling and estimation exactness in the noiseless
  * limit.
  */
class DataProviderSpec extends SparkSpec {

  /** One provider, 200 raw rows over a single dimension `x` with values
    * 0..99 twice ⇒ tensor of 100 rows (measure 2 each), S = 10 ⇒ 10 clusters
    * of 10 tensor rows — every cluster identical under a full-range query.
    */
  private lazy val uniform: FederationSetup = {
    import spark.implicits._
    val raw = spark.range(200).map(i => (i % 100).toInt).toDF("x")
    Setup.build(spark, raw, Seq("x"), nProviders = 1, clusterFrac = 0.1,
      FedConfig(nMin = 4), Storage.Cached, seed = 1L)
  }

  private def provider: DataProvider = uniform.federation.providers.head
  private val fullRange = RangeQuery(Agg.Count, Seq(DimRange("x", 0, 99)))
  private val inf = Double.PositiveInfinity

  test("fixture sanity: 10 clusters of 10 rows each") {
    assert(uniform.S == 10)
    assert(provider.meta.clusters.size == 10)
    assert(provider.meta.clusters.forall(_.nRows == 10))
  }

  test("noiseless summary reports the true N^Q and Avg(R)") {
    val s = provider.summary(fullRange, epsO = inf, new Laplace(new Random(1)))
    assert(s.noisyN == 10.0)
    // every cluster fully matches: R = 10/10 = 1
    assert(math.abs(s.noisyAvgR - 1.0) < 1e-12)
  }

  test("noisy summary deviates from the truth but stays near it for large eps") {
    val s = provider.summary(fullRange, epsO = 100.0, new Laplace(new Random(2)))
    assert(math.abs(s.noisyN - 10.0) < 2.0)
    assert(math.abs(s.noisyAvgR - 1.0) < 1.0)
  }

  /** Noiseless run of the one-provider federation: with Ñ^Q = N^Q the
    * allocation gives the provider `s = round(sr · N^Q)` clusters.
    */
  private def noiseless(q: RangeQuery, sr: Double): RunResult =
    uniform.federation.run(q, sr, eps = inf, useSmc = false, seed = 3)

  test("full sample, noiseless: Hansen-Hurwitz estimate is exact (COUNT)") {
    assert(!provider.plan(fullRange, 10, inf, new Random(3)).exactPath)
    val r = noiseless(fullRange, sr = 0.99)
    assert(r.scannedClusters == 10 && r.coveringClusters == 10)
    assert(math.abs(r.answer - 100.0) < 1e-9) // 100 tensor rows
  }

  test("full sample, noiseless: exact for SUM(measure)") {
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("x", 0, 99)))
    assert(math.abs(noiseless(q, sr = 0.99).answer - 200.0) < 1e-9) // 200 raw individuals
  }

  test("uniform clusters: any sample size is exact in the noiseless limit") {
    // all clusters identical ⇒ (N/s)·s·Q(C) = N·Q(C) regardless of s
    for ((sr, s) <- Seq(0.2 -> 2, 0.5 -> 5, 0.8 -> 8)) {
      val r = noiseless(fullRange, sr)
      assert(math.abs(r.answer - 100.0) < 1e-9, s"s=$s")
      assert(r.scannedClusters == s)
    }
  }

  test("N^Q below N^min takes the exact path") {
    // x in [0,5] touches only cluster 0 (values 0..9); nMin = 4 > 1
    val q = RangeQuery(Agg.Count, Seq(DimRange("x", 0, 5)))
    assert(provider.plan(q, 1, inf, new Random(6)).exactPath)
    assert(noiseless(q, sr = 0.5).answer == 6.0) // 6 tensor rows (values 0..5)
    // the exact path releases with sensitivity 1: scale = 1 / ε^E
    val r = uniform.federation.run(q, 0.5, eps = 1.0, useSmc = false, seed = 6)
    assert(r.noiseScale == 1.0 / (uniform.federation.cfg.hp3 * 1.0))
  }

  test("exact path answer equals the provider-local plain scan") {
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("x", 10, 25)))
    val covering = provider.meta.coveringClusters(q)
    assume(covering.size < provider.nMin)
    assert(provider.plan(q, 1, inf, new Random(7)).exactPath)
    assert(noiseless(q, sr = 0.5).answer == 32.0) // 16 values × measure 2
  }

  test("an SMC release on one provider is refused at entry; local noise is answered") {
    val e = intercept[IllegalArgumentException](
      uniform.federation.run(fullRange, 0.5, eps = 1.0, useSmc = true, seed = 11))
    assert(e.getMessage.contains("SMC") && e.getMessage.contains("has 1"), e.getMessage)
    assert(uniform.federation.run(fullRange, 0.5, eps = 1.0, useSmc = false, seed = 11).answer.isFinite)
  }

  test("approximation path reports a positive smooth-sensitivity numerator") {
    assert(!provider.plan(fullRange, 4, inf, new Random(8)).exactPath)
    val r = uniform.federation.run(fullRange, 0.4, eps = 1.0, useSmc = false, seed = 8)
    assert(r.noiseScale > 0)
  }

  test("requested sample size is clamped to N^Q") {
    assert(provider.plan(fullRange, 50, inf, new Random(9)).clusterIds.size == 10)
  }

  test("sample size floor of 1 is enforced") {
    assert(provider.plan(fullRange, 0, inf, new Random(10)).clusterIds.size == 1)
  }

  test("covering proportions feed sampling probabilities that sum to 1") {
    val (cq, rs) = provider.covering(fullRange)
    val ps = provider.meta.samplingProbabilities(rs)
    assert(cq.size == 10)
    assert(math.abs(ps.sum - 1.0) < 1e-12)
  }
}
