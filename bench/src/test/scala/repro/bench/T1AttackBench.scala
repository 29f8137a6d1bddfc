package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Table 1: NBC inference accuracy vs total budget ξ under sequential /
  * advanced / coalition composition, COUNT and SUM. Paper: < 1% everywhere
  * with ‖d_SA‖ = 100 (their SA marginal is ~uniform, so random guessing ≈
  * 1%). Our planted SA is skewed, so the information-free floor is the
  * majority-class baseline, reported alongside, plus a no-privacy control
  * showing the attack genuinely works on exact answers.
  */
class T1AttackBench extends SparkSpec {

  private lazy val (rows, control, majority) =
    Tables.attackAnalysis(spark, BenchFixtures.attackRows)

  private def dpRegime = rows.filter(r => r.composition != "Coalition")

  test("print Table 1") {
    println(Tables.report(Tables.T1, rows, withPaper = true,
      Tables.attackBaselines(control, majority)))
  }

  test("the attack works without protection (control beats the majority baseline)") {
    assert(control > majority + 0.02,
      s"control $control vs majority $majority — attack not meaningful")
  }

  test("DP-regime cells collapse to the information-free floor") {
    // sequential + advanced composition leave per-query eps <= 0.13 even at
    // xi = 100 — the paper's regime; accuracy must sit at the baseline
    assert(dpRegime.forall(_.accuracy < majority + 0.02),
      s"cells above baseline+2%: ${dpRegime.filter(_.accuracy >= majority + 0.02)}")
    assert(dpRegime.forall(_.accuracy < control / 2),
      s"cells above control/2: ${dpRegime.filter(_.accuracy >= control / 2)}")
  }

  test("every cell, including coalition, stays below the unprotected control") {
    // a coalition at xi >= 50 runs each query at eps = 50-100, i.e. with DP
    // effectively off — only the sampling approximation protects, so some
    // residual signal is expected (see EXPERIMENTS.md); it must still not
    // reach the unprotected accuracy
    assert(rows.forall(_.accuracy < control),
      s"cells at/above control: ${rows.filter(_.accuracy >= control)}")
  }

  test("all composition regimes and both aggregations are covered") {
    assert(rows.map(_.composition).distinct.toSet == Set("Sequential", "Advanced", "Coalition"))
    assert(rows.map(_.agg).distinct.toSet == Set("COUNT", "SUM"))
    assert(rows.map(_.xi).distinct.toSet == Set(1.0, 20.0, 50.0, 100.0))
    assert(rows.size == 24)
  }
}
