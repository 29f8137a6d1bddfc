package repro.data

import scala.util.Random

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.{Agg, DimRange, RangeQuery}
import repro.federation.Federation

/** One discrete, totally ordered dimension and its public domain. */
final case class DimSpec(name: String, lo: Int, hi: Int) {
  require(lo <= hi)
  def size: Int = hi - lo + 1
}

/** Synthetic stand-ins for the paper's evaluation datasets (DESIGN.md §4).
  *
  * The paper uses a synthetically scaled Adult (4M rows, 6 tensor dims) and
  * an augmented Amazon Review (924M rows, 6 dims). We generate schema- and
  * shape-compatible data at configurable row counts: per-dimension skew is
  * planted (power-shaped draws) so rows concentrate unevenly across clusters
  * and the distribution-aware sampling has something to exploit.
  */
object Datasets {

  /** Adult-like tensor dimensions (the 6 aggregated dimensions of §6.1). */
  val adultDims: Seq[DimSpec] = Seq(
    DimSpec("age", 17, 90),
    DimSpec("edu", 1, 16),
    DimSpec("hours", 1, 99),
    DimSpec("workclass", 1, 8),
    DimSpec("occupation", 1, 14),
    DimSpec("capgain", 0, 49),
  )

  /** AmazonReview-like dimensions: 3 natural "range-querable" ones plus the
    * 3 randomly populated dimensions the paper adds.
    */
  val amazonDims: Seq[DimSpec] = Seq(
    DimSpec("rating", 1, 5),
    DimSpec("year", 0, 18),
    DimSpec("helpful", 0, 100),
    DimSpec("rdim1", 1, 50),
    DimSpec("rdim2", 1, 50),
    DimSpec("rdim3", 1, 50),
  )

  /** Attack-experiment dimensions (§6.6): a 100-valued sensitive attribute
    * and three quasi-identifiers.
    */
  val attackSaDim: DimSpec = DimSpec("sa", 1, 100)
  val attackQiDims: Seq[DimSpec] = Seq(
    DimSpec("qi1", 1, 8),
    DimSpec("qi2", 1, 14),
    DimSpec("qi3", 1, 16),
  )

  /** Power-shaped integer draw in `[lo, hi]`: `shape > 1` skews low,
    * `shape < 1` skews high, `shape = 1` is uniform.
    */
  private def skewed(spec: DimSpec, shape: Double, seed: Long): Column =
    least(lit(spec.hi),
      (lit(spec.lo) + floor(pow(rand(seed), lit(shape)) * spec.size)).cast("int"))

  /** Adult-like raw rows (integer dims only — other attributes would be
    * aggregated away anyway).
    */
  def adultRaw(spark: SparkSession, rows: Long, seed: Long = 11L): DataFrame = {
    val shapes = Seq(2.2, 1.6, 2.8, 1.2, 1.0, 3.5) // planted per-dim skew
    spark.range(rows).select(
      adultDims.zip(shapes).zipWithIndex.map { case ((spec, sh), i) =>
        skewed(spec, sh, seed + i).as(spec.name)
      }: _*)
  }

  /** AmazonReview-like raw rows. */
  def amazonRaw(spark: SparkSession, rows: Long, seed: Long = 23L): DataFrame = {
    val shapes = Seq(0.6, 1.8, 3.0, 1.0, 1.0, 1.0) // ratings skew high, helpfulness low
    spark.range(rows).select(
      amazonDims.zip(shapes).zipWithIndex.map { case ((spec, sh), i) =>
        skewed(spec, sh, seed + i).as(spec.name)
      }: _*)
  }

  /** Attack dataset: `sa` is correlated with the quasi-identifiers (a noisy
    * linear blend), so a Naive Bayes classifier trained on *exact* counts
    * genuinely predicts `sa` — the resilience claim is then that the same
    * attack through the private pipeline collapses to random guessing.
    */
  def attackRaw(spark: SparkSession, rows: Long, seed: Long = 31L): DataFrame = {
    val qi = attackQiDims.zipWithIndex.map { case (spec, i) =>
      skewed(spec, 1.5, seed + i).as(spec.name)
    }
    val base = attackQiDims.map { spec =>
      (col(spec.name).cast("double") - spec.lo) / math.max(1, spec.size - 1)
    }.reduce(_ + _) / attackQiDims.size // in [0,1]
    spark.range(rows)
      .select(qi: _*)
      .withColumn(attackSaDim.name,
        least(lit(attackSaDim.hi), greatest(lit(attackSaDim.lo),
          (lit(1) + floor(base * lit(85.0) + pow(rand(seed + 100), 3.0) * lit(15.0))).cast("int"))))
  }

  /** One random range query of a workload `(m, n)` (paper §6.1),
    * constraining `n` distinct dimensions. Range widths are 40–85% of the
    * domain so queries are selective but their answers stay large relative
    * to DP noise (the paper's datasets are orders of magnitude bigger, so
    * narrower queries still dwarf the noise there).
    */
  def randomQuery(dims: Seq[DimSpec], n: Int, agg: Agg, rng: Random): RangeQuery = {
    require(n >= 1 && n <= dims.size, s"n=$n out of range for ${dims.size} dims")
    val chosen = rng.shuffle(dims.toList).take(n)
    val ranges = chosen.map { spec =>
      val width = math.max(1, ((0.4 + 0.45 * rng.nextDouble()) * spec.size).toInt)
      val lb = spec.lo + rng.nextInt(math.max(1, spec.size - width + 1))
      DimRange(spec.name, lb, math.min(spec.hi, lb + width - 1))
    }
    RangeQuery(agg, ranges)
  }

  /** Random queries drawn in search of a qualifying workload before giving up. */
  private val MaxTries = 10000

  /** Workload restricted, as in §6.1, to queries that trigger the
    * approximation (`N^Q ≥ N^min`) at every provider. Draws until `m`
    * qualifying queries are found (or [[MaxTries]] draws are spent).
    */
  def qualifyingWorkload(fed: Federation, dims: Seq[DimSpec], m: Int, n: Int, agg: Agg,
                         seed: Long): Seq[RangeQuery] = {
    val rng = new Random(seed)
    val out = Seq.newBuilder[RangeQuery]
    var found = 0
    var tries = 0
    while (found < m && tries < MaxTries) {
      val q = randomQuery(dims, n, agg, rng)
      val ok = fed.providers.forall(p => p.covering(q)._1.size >= p.nMin)
      if (ok) { out += q; found += 1 }
      tries += 1
    }
    require(found == m,
      s"only $found/$m qualifying queries after $MaxTries tries — lower N^min or enlarge data")
    out.result()
  }
}
