package repro.bench

import repro.SparkSpec
import repro.harness.Tables

/** Figure 1: runtime cost of SMC row sharing vs result sharing. Paper:
  * result sharing is constant (~0.04s) and on average >400x cheaper than
  * row sharing, whose cost grows with the table.
  */
class F1RowSharingBench extends SparkSpec {

  private lazy val rows =
    Tables.rowSharingSimulation(spark, Tables.rowSharingSizes(200000L))

  test("print Figure 1 table") {
    println(Tables.report(Tables.F1, rows, withPaper = true))
  }

  test("shape: row sharing is orders of magnitude more expensive") {
    assert(rows.forall(_.ratio > 5), s"ratios: ${rows.map(_.ratio)}")
    assert(rows.last.ratio > 20, s"largest-size ratio: ${rows.last.ratio}")
  }

  test("shape: row-sharing cost grows with the table size") {
    assert(rows.last.rowSharingMs > 3 * rows.head.rowSharingMs,
      s"${rows.head.rowSharingMs} -> ${rows.last.rowSharingMs}")
  }

  test("shape: result-sharing cost is size-independent") {
    val ms = rows.map(_.resultSharingMs)
    assert(ms.max < math.max(ms.min, 0.5) * 20, s"result-sharing times: $ms")
  }
}
