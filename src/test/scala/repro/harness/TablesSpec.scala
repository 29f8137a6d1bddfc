package repro.harness

import repro.{SparkSpec, TestFixtures}
import repro.data.Datasets

/** Harness smoke tests: table formatting and the cheapest end-to-end
  * harness (full experiment runs live in bench/).
  */
class TablesSpec extends SparkSpec {

  test("fmt renders an aligned markdown-style table") {
    final case class Row(name: String, v: Double)
    val out = Tables.fmt(Seq(Row("alpha", 1.0), Row("b", 22.12345)), Seq("name", "value"))
    val lines = out.split("\n")
    assert(lines.length == 4)
    assert(lines.head.contains("name") && lines.head.contains("value"))
    assert(lines(2).contains("alpha") && lines(2).contains("1.0000"))
    assert(lines(3).contains("22.1234") || lines(3).contains("22.1235"))
    assert(lines.map(_.length).distinct.size == 1, "columns must align")
  }

  test("row-sharing simulation produces the Figure-1 shape at tiny scale") {
    val rows = Tables.rowSharingSimulation(spark, sizes = Seq(1000L, 8000L))
    assert(rows.size == 2)
    // row sharing costs more than result sharing at every size
    assert(rows.forall(r => r.rowSharingMs > r.resultSharingMs))
    // and its cost grows with the table
    assert(rows(1).rowSharingMs > rows(0).rowSharingMs)
  }

  test("sweep yields one finite row per axis value and aggregation on every axis") {
    val ctx = new Tables.Context(TestFixtures.adultSmall)
    for ((axis, xs, sr) <- Seq((Tables.Axis.N, Seq(2.0, 3.0), 0.2),
                               (Tables.Axis.Sr, Seq(10.0, 20.0, 30.0), Double.NaN),
                               (Tables.Axis.Eps, Seq(0.5, 1.0), 0.2))) {
      val series = Tables.Series("Adult", Datasets.adultDims, xs, sr)
      val rows = Tables.sweep(ctx, series, axis, m = 2, seed = 5L)
      assert(rows.size == 2 * xs.size, s"$axis")
      assert(rows.map(r => (r.x, r.agg)).toSet == xs.flatMap(x => Seq((x, "COUNT"), (x, "SUM"))).toSet)
      assert(rows.forall(r => r.avgRelErr.isFinite && r.avgSpeedup.isFinite), s"$axis: $rows")
    }
  }

  test("Figure 8 yields a finite DP and SMC row for each query") {
    val rows = Tables.smcVsDp(new Tables.Context(TestFixtures.adultSmall))
    assert(rows.size == 10)
    assert(rows.groupBy(_.queryId).values.forall(_.map(_.mode).sorted == Seq("DP", "SMC")), s"$rows")
    assert(rows.forall(r => r.avgRelErr.isFinite && r.avgSpeedup.isFinite), s"$rows")
    assert(rows.forall(r => r.noiseAbsMin <= r.noiseAbsMax), s"$rows")
  }
}
