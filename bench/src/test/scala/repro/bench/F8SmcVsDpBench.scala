package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Figure 8: SMC-released (single noise draw, max sensitivity) vs local
  * per-provider noise. Paper: SMC adds no significant overhead and yields a
  * tighter noise range than summing four local draws.
  */
class F8SmcVsDpBench extends SparkSpec {

  private lazy val rows =
    Tables.smcVsDp(BenchFixtures.adult)

  test("print Figure 8 table") {
    println(Tables.report(Tables.F8, rows, withPaper = true))
  }

  test("shape: SMC release does not cost meaningful speed-up") {
    val sp = rows.groupBy(_.mode).view.mapValues(rs => rs.map(_.avgSpeedup).sum / rs.size)
    assert(sp("SMC") > 0.5 * sp("DP"), s"SMC=${sp("SMC")} DP=${sp("DP")}")
  }

  test("shape: SMC single-draw noise is tighter than summed local draws on average") {
    val worst = rows.groupBy(_.mode).view.mapValues(rs => rs.map(_.noiseAbsMax).sum / rs.size)
    assert(worst("SMC") < worst("DP") * 1.5,
      s"avg max |noise| SMC=${worst("SMC")} vs DP=${worst("DP")}")
  }

  test("shape: both release paths stay accurate") {
    assert(rows.forall(_.avgRelErr < 0.5), s"outliers: ${rows.filter(_.avgRelErr >= 0.5)}")
  }
}
