package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Figure 4 (+ Figure 7 dimension axis): relative error and speed-up vs the
  * number of query dimensions. Paper: sr = 20% Adult / 5% Amazon, ε = 1;
  * error < 11% (Adult COUNT) / 17% (Adult SUM) / 2.5% (Amazon COUNT) /
  * 5% (Amazon SUM); error → ~0 at n = 2; speed-up falls as n grows.
  */
class F4DimensionBench extends SparkSpec {

  private lazy val rows =
    Tables.F4.rows(BenchFixtures.adult, BenchFixtures.amazon, BenchFixtures.m)

  test("print Figure 4/7 table") {
    println(Tables.F4.report(rows, withPaper = true))
  }

  test("shape: low-dimensional queries are near-exact") {
    val lowDim = rows.filter(_.x == 2)
    assert(lowDim.forall(_.avgRelErr < 0.10),
      s"n=2 errors should be close to 0: ${lowDim.map(r => (r.dataset, r.agg, r.avgRelErr))}")
  }

  test("shape: errors stay moderate at every dimensionality") {
    // the paper reports <=17% on datasets 5-150x larger; relative DP error
    // scales inversely with answer size, so the bound here is looser
    assert(rows.forall(_.avgRelErr < 0.8),
      s"outliers: ${rows.filter(_.avgRelErr >= 0.8)}")
  }

  test("shape: error grows with the number of dimensions on average") {
    def meanErr(f: Tables.SweepRow => Boolean) = {
      val sel = rows.filter(f); sel.map(_.avgRelErr).sum / sel.size
    }
    val lo = meanErr(r => r.x <= 3)
    val hi = meanErr(r => r.x >= 4)
    assert(hi > lo, s"mean err n<=3: $lo vs n>=4: $hi")
  }

  test("shape: the approximation is faster than the plain-text scan") {
    val mean = rows.map(_.avgSpeedup).sum / rows.size
    assert(mean > 1.0, s"mean speed-up $mean")
  }
}
