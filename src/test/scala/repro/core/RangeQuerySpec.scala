package repro.core

import org.apache.spark.sql.functions.sum

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.data.Datasets

/** Range-query model: predicate/contribution semantics oracle-checked against
  * DuckDB, plus model invariants.
  */
class RangeQuerySpec extends SparkSpec {

  private lazy val raw = TestFixtures.adultRawSmall
  private lazy val tensor = {
    val t = Tensor.fromRows(raw, Datasets.adultDims.map(_.name)).cache()
    t.count(); t
  }
  private def exact(q: RangeQuery): Double = new SparkClusterEval(tensor).exactTotal(q)

  test("COUNT range query matches DuckDB oracle") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("age", 20, 40), DimRange("edu", 5, 12)))
    val got = tensor.filter(q.predicate).agg(sum(q.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q, "tensor"), "tensor" -> tensor)
  }

  test("SUM(measure) range query matches DuckDB oracle") {
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 30, 60), DimRange("hours", 10, 50)))
    val got = tensor.filter(q.predicate).agg(sum(q.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q, "tensor"), "tensor" -> tensor)
  }

  test("single-dimension COUNT matches oracle") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("workclass", 2, 5)))
    val got = tensor.filter(q.predicate).agg(sum(q.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q, "tensor"), "tensor" -> tensor)
  }

  test("four-dimension SUM matches oracle") {
    val q = RangeQuery(Agg.SumMeasure, Seq(
      DimRange("age", 17, 55), DimRange("edu", 2, 14),
      DimRange("occupation", 1, 9), DimRange("capgain", 0, 30)))
    val got = tensor.filter(q.predicate).agg(sum(q.contribution).cast("double").as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q, "tensor"), "tensor" -> tensor)
  }

  test("empty-result SUM evaluates to 0 (not null)") {
    // age domain is [17,90]; an impossible-but-valid range selects nothing
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 10, 12)))
    assert(exact(q) == 0.0)
  }

  test("empty-result COUNT evaluates to 0") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("age", 10, 12)))
    assert(exact(q) == 0.0)
  }

  test("full-domain COUNT equals tensor row count") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("age", 17, 90)))
    assert(exact(q) == tensor.count().toDouble)
  }

  test("full-domain SUM(measure) equals raw row count") {
    val q = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 17, 90)))
    assert(exact(q) == raw.count().toDouble)
  }

  test("evaluate agrees with manual filter-count") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("age", 25, 45), DimRange("capgain", 0, 10)))
    import org.apache.spark.sql.functions.col
    val manual = tensor
      .filter(col("age") >= 25 && col("age") <= 45 && col("capgain") >= 0 && col("capgain") <= 10)
      .count().toDouble
    assert(exact(q) == manual)
  }

  test("nDims reflects the number of constrained dimensions") {
    assert(RangeQuery(Agg.Count, Seq(DimRange("a", 1, 2))).nDims == 1)
    assert(RangeQuery(Agg.Count, Seq(DimRange("a", 1, 2), DimRange("b", 0, 0))).nDims == 2)
  }

  test("degenerate point range is allowed") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("age", 30, 30)))
    assert(exact(q) >= 0.0)
  }

  test("inverted range is rejected") {
    intercept[IllegalArgumentException](DimRange("age", 41, 40))
  }

  test("query without ranges is rejected") {
    intercept[IllegalArgumentException](RangeQuery(Agg.Count, Seq.empty))
  }

  test("duplicate dimension is rejected") {
    intercept[IllegalArgumentException](
      RangeQuery(Agg.Count, Seq(DimRange("age", 1, 2), DimRange("age", 3, 4))))
  }

  test("oracleSql casts dimensions (VARCHAR-stored oracle tables compare numerically)") {
    val q = RangeQuery(Agg.Count, Seq(DimRange("age", 5, 100)))
    assert(Oracle.sql(q, "t").contains("CAST(age AS INTEGER) BETWEEN 5 AND 100"))
  }
}
