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

/** A query's predicate and aggregation over integer column arrays: the one
  * plain-text range evaluation that the parquet page reader, the block
  * evaluator and Figure 1's result sharing run. [[InMemoryClusterEval]]
  * keeps its own, as the independent reference this one is checked against.
  *
  * @param column the index of each of `q`'s dimensions among the column
  *               arrays that [[span]] is given
  */
final class RangeKernel(q: RangeQuery, column: String => Int) extends Serializable {
  private val cols = q.ranges.map(r => column(r.dim)).toArray
  private val lbs = q.ranges.map(_.lb).toArray
  private val ubs = q.ranges.map(_.ub).toArray
  private val isCount = q.agg == Agg.Count

  /** The query's answer over rows `[from, until)`, exact in `Long`:
    * `dims(c)(i)` is column `c` of row `i`.
    */
  def span(dims: Array[Array[Int]], measures: Array[Long], from: Int, until: Int): Long = {
    var s = 0L; var i = from
    while (i < until) {
      var ok = true; var d = 0
      while (ok && d < cols.length) {
        val v = dims(cols(d))(i)
        ok = v >= lbs(d) && v <= ubs(d)
        d += 1
      }
      if (ok) s += (if (isCount) 1L else measures(i))
      i += 1
    }
    s
  }
}
