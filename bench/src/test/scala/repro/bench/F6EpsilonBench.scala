package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Figure 6 (+ Figure 7 ε axis): relative error and speed-up vs the privacy
  * budget (n = 4, sr = 10% Adult / 5% Amazon). Paper: error falls as ε
  * grows; SUM beats COUNT at equal ε; Amazon beats Adult; ε does not
  * affect speed-up.
  */
class F6EpsilonBench extends SparkSpec {

  private lazy val rows =
    Tables.F6.rows(BenchFixtures.adult, BenchFixtures.amazon, BenchFixtures.m)

  test("print Figure 6/7 table") {
    println(Tables.F6.report(rows, withPaper = true))
  }

  test("shape: error falls as epsilon grows") {
    def meanErr(eps: Double) = {
      val sel = rows.filter(_.x == eps); sel.map(_.avgRelErr).sum / sel.size
    }
    assert(meanErr(1.3) < meanErr(0.1), s"err@1.3=${meanErr(1.3)} vs err@0.1=${meanErr(0.1)}")
  }

  test("shape: the large dataset is less affected by noise") {
    def meanErr(ds: String) = {
      val sel = rows.filter(r => r.dataset == ds && r.x <= 0.4)
      sel.map(_.avgRelErr).sum / sel.size
    }
    assert(meanErr("Amazon") < meanErr("Adult"),
      s"Amazon=${meanErr("Amazon")} vs Adult=${meanErr("Adult")} at small eps")
  }

  test("shape: epsilon has no systematic effect on speed-up") {
    def meanSp(eps: Double) = {
      val sel = rows.filter(_.x == eps); sel.map(_.avgSpeedup).sum / sel.size
    }
    val sps = Tables.F6.adult.xs.map(meanSp)
    // flat within noise: max/min ratio bounded (paper shows flat lines)
    assert(sps.max / sps.min < 2.0, s"speed-ups across eps: $sps")
  }

  test("shape: speed-up persists under DP") {
    val mean = rows.map(_.avgSpeedup).sum / rows.size
    assert(mean > 1.0, s"mean speed-up $mean")
  }
}
