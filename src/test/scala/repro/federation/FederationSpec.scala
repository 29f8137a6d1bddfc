package repro.federation

import org.apache.spark.sql.functions.sum

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.core.{Agg, DimRange, RangeQuery}
import repro.data.Datasets

/** End-to-end protocol: accuracy in the noiseless limit, determinism,
  * budget accounting, SMC/DP release equivalence, oracle-checked ground
  * truth, and cluster-scan accounting.
  */
class FederationSpec extends SparkSpec {

  private lazy val fed = TestFixtures.adultSmall.federation
  private val inf = Double.PositiveInfinity

  private val q = RangeQuery(Agg.Count, Seq(DimRange("age", 20, 60), DimRange("edu", 2, 14)))
  private val qSum = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 20, 60), DimRange("hours", 5, 80)))

  test("ground truth equals the DuckDB oracle") {
    val df = TestFixtures.adultSmall.clustered
    val got = df.filter(q.predicate).agg(sum(q.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q, "t"), "t" -> df)
    assert(fed.exactWithTime(q)._1 == got.head.getDouble(0))
  }

  test("noiseless full-rate run recovers the exact answer within sampling error") {
    val r = fed.run(q, sr = 0.9, eps = inf, useSmc = false, seed = 1)
    assert(r.noise == 0.0)
    assert(r.relativeError < 0.35, s"err=${r.relativeError} answer=${r.answer} exact=${r.exact}")
  }

  test("noiseless runs have zero realized noise on both release paths") {
    assert(fed.run(q, 0.3, inf, useSmc = false, seed = 2).noise == 0.0)
    assert(fed.run(q, 0.3, inf, useSmc = true, seed = 2).noise == 0.0)
  }

  test("runs are deterministic under a fixed seed") {
    val a = fed.run(q, 0.2, 1.0, useSmc = false, seed = 7)
    val b = fed.run(q, 0.2, 1.0, useSmc = false, seed = 7)
    assert(a.answer == b.answer && a.noise == b.noise)
  }

  test("different seeds give different noise") {
    val a = fed.run(q, 0.2, 1.0, useSmc = false, seed = 8)
    val b = fed.run(q, 0.2, 1.0, useSmc = false, seed = 9)
    assert(a.noise != b.noise)
  }

  test("per-query budget accounting: eps spent equals the query budget") {
    val r = fed.run(q, 0.2, 1.0, useSmc = false, seed = 10)
    assert(math.abs(r.epsSpent - 1.0) < 1e-12)
    assert(r.deltaSpent == fed.cfg.delta)
  }

  test("budget split honors the hyperparameters") {
    // hp = (0.1, 0.1, 0.8) ⇒ ε^E = 0.8; the reported noiseScale is
    // numerator / ε^E, so scaling ε by 2 must halve the noise scale.
    val a = fed.run(q, 0.2, 1.0, useSmc = true, seed = 11)
    val b = fed.run(q, 0.2, 2.0, useSmc = true, seed = 11)
    // same seed ⇒ same sampled clusters only if sampling noise identical;
    // EM draws differ with ε, so compare orders of magnitude instead
    assert(b.noiseScale < a.noiseScale * 1.5)
  }

  test("SMC and local-noise paths agree in the noiseless limit") {
    val a = fed.run(q, 0.25, inf, useSmc = false, seed = 12)
    val b = fed.run(q, 0.25, inf, useSmc = true, seed = 12)
    assert(math.abs(a.answer - b.answer) < 1e-4) // fixed-point rounding only
  }

  test("SMC single-noise scale is bounded by the worst local scale") {
    val a = fed.run(q, 0.25, 1.0, useSmc = false, seed = 13)
    val b = fed.run(q, 0.25, 1.0, useSmc = true, seed = 13)
    assert(b.noiseScale <= a.noiseScale + 1e-9)
  }

  test("scanned clusters respect the sampling rate") {
    val r = fed.run(q, 0.2, 1.0, useSmc = false, seed = 14)
    assert(r.scannedClusters < r.coveringClusters)
    assert(r.scannedClusters >= fed.providers.size) // floor of 1 each
  }

  test("higher sampling rate scans more clusters") {
    val lo = fed.run(q, 0.1, inf, useSmc = false, seed = 15)
    val hi = fed.run(q, 0.5, inf, useSmc = false, seed = 15)
    assert(hi.scannedClusters > lo.scannedClusters)
  }

  test("SUM queries work end-to-end") {
    val r = fed.run(qSum, 0.8, inf, useSmc = false, seed = 16)
    assert(r.relativeError < 0.5, s"err=${r.relativeError}")
    assert(r.exact > 0)
  }

  test("accuracy improves with eps on average (DP trend)") {
    def meanErr(eps: Double): Double = {
      val rng = new scala.util.Random(99)
      val qs = Seq.fill(12)(Datasets.randomQuery(Datasets.adultDims, 2, Agg.SumMeasure, rng))
      val errs = qs.zipWithIndex.map { case (qq, i) =>
        fed.run(qq, 0.3, eps, useSmc = false, seed = 400 + i).relativeError
      }
      errs.sum / errs.size
    }
    assert(meanErr(20.0) < meanErr(0.05))
  }

  test("exact baseline reuse returns the provided values untouched") {
    val r = fed.run(q, 0.2, 1.0, useSmc = false, seed = 17, exactBaseline = Some((1234.0, 7.5)))
    assert(r.exact == 1234.0 && r.exactMs == 7.5)
  }

  test("provider answers compose: federated exact equals sum of local exacts") {
    val setup = TestFixtures.adultSmall
    val locals = setup.metas.map { m =>
      setup.eval.perCluster(Map(m.providerId -> m.clusters.map(_.clusterId)), q).values.sum
    }
    assert(locals.sum == setup.eval.exactTotal(q))
  }

  test("the budget split is the paper's 0.1/0.1/0.8 and sums to 1") {
    val cfg = FedConfig()
    assert((cfg.hp1, cfg.hp2, cfg.hp3) == ((0.1, 0.1, 0.8)))
    assert(math.abs(cfg.hp1 + cfg.hp2 + cfg.hp3 - 1.0) < 1e-12)
  }

  test("delta outside (0,1) is rejected") {
    for (d <- Seq(0.0, 1.0, -1e-3, Double.NaN))
      intercept[IllegalArgumentException](FedConfig(delta = d))
  }

  test("N^min below 1 is refused") {
    for (n <- Seq(0, -3)) {
      val e = intercept[IllegalArgumentException](FedConfig(nMin = n))
      assert(e.getMessage.contains("N^min"))
    }
  }

  test("a non-positive privacy budget is refused, not answered with infinite noise") {
    for (eps <- Seq(0.0, -1.0, Double.NaN)) {
      val e = intercept[IllegalArgumentException](fed.run(q, 0.2, eps, useSmc = false, seed = 18))
      assert(e.getMessage.contains("eps"))
    }
  }

  test("a sampling rate outside (0,1) is refused") {
    for (sr <- Seq(0.0, 1.0, 1.5, -0.1)) {
      val e = intercept[IllegalArgumentException](fed.run(q, sr, 1.0, useSmc = false, seed = 19))
      assert(e.getMessage.contains("sampling rate"))
    }
  }

  test("a query on an unknown dimension is refused") {
    val bad = RangeQuery(Agg.Count, Seq(DimRange("age", 20, 60), DimRange("salary", 1, 9)))
    val e = intercept[IllegalArgumentException](fed.run(bad, 0.2, 1.0, useSmc = false, seed = 20))
    assert(e.getMessage.contains("salary"))
  }
}
