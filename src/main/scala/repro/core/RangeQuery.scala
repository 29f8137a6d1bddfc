package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Aggregation kind of a range query (paper §3: COUNT(*) or SUM(Measure)).
  *
  * On the count tensor, `COUNT(*)` counts tensor rows while `SUM(Measure)`
  * counts the aggregated raw individuals. Both have per-individual global
  * sensitivity 1 on the un-estimated query.
  */
sealed trait Agg
object Agg {
  case object Count      extends Agg
  case object SumMeasure extends Agg
}

/** Closed interval `[lb, ub]` on one discrete, totally ordered dimension. */
final case class DimRange(dim: String, lb: Int, ub: Int) {
  require(lb <= ub, s"empty range on $dim: [$lb,$ub]")
}

/** A range aggregation query (paper §3):
  * `SELECT <agg> FROM T WHERE lb_d <= d <= ub_d for d in D^Q`.
  */
final case class RangeQuery(agg: Agg, ranges: Seq[DimRange]) {
  require(ranges.nonEmpty, "a range query needs at least one dimension")
  require(ranges.map(_.dim).distinct.size == ranges.size, "duplicate dimension in query")

  /** `|D^Q|` — the number of constrained dimensions. */
  def nDims: Int = ranges.size

  /** Spark filter predicate over the (tensor) DataFrame columns. */
  def predicate: Column =
    ranges.map(r => col(r.dim) >= r.lb && col(r.dim) <= r.ub).reduce(_ && _)

  /** Per-row contribution to the answer as a `Long` column: 1 for
    * `COUNT(*)`, the measure for `SUM(Measure)`. Its sum over the rows that
    * pass [[predicate]] is the answer, exactly.
    */
  def contribution: Column = agg match {
    case Agg.Count      => lit(1L)
    case Agg.SumMeasure => col(Tensor.MeasureCol).cast("long")
  }
}
