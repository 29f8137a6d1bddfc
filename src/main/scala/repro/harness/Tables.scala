package repro.harness

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.baseline.RowSharingSmc
import repro.core.{Agg, Clustering, RangeQuery, Tensor}
import repro.data.{Datasets, DimSpec}
import repro.dp.Composition
import repro.federation._
import repro.attack.NbcAttack

/** Shared experiment harnesses — one function per paper table/figure
  * (DESIGN.md §5). Bench suites call them at laptop scale; `jobs/` mains
  * expose them to spark-submit with caller-chosen scale.
  *
  * Measurement split, the same for every figure point: wall-clock
  * **speed-ups** come from parquet-backed Spark runs (one per query, after
  * two warm-up runs of each code path); **error and noise** statistics
  * average several repetitions of the identical protocol on the in-memory
  * replay, so DP-noise variance is integrated out without paying a Spark
  * job per repetition (the paper averages m = 100 queries on a cluster
  * instead).
  */
object Tables {

  /** Paper defaults (§6.1): 4 providers, δ=1e−3, budget split 0.1/0.1/0.8. */
  val DefaultCfg: FedConfig = FedConfig()
  val NProviders = 4

  /** Error repetitions per (query, configuration) on the in-memory replay. */
  val ErrReps = 5

  /** Default raw-row scale of the Adult-like and Amazon-like federations
    * that the bench suites and `jobs/` build (DESIGN.md §4/§5).
    */
  val AdultRows: Long  = 1600000L
  val AmazonRows: Long = 24000000L

  /** Adult-like federation: S = 1% of the provider-local tensor. */
  def setupAdult(spark: SparkSession, rows: Long, storage: Storage): FederationSetup =
    Setup.build(spark, Datasets.adultRaw(spark, rows), Datasets.adultDims.map(_.name),
      NProviders, clusterFrac = 0.01, DefaultCfg, storage, seed = 42L, skewProviders = true)

  /** AmazonReview-like federation: S = 0.5% of the provider-local tensor. */
  def setupAmazon(spark: SparkSession, rows: Long, storage: Storage): FederationSetup =
    Setup.build(spark, Datasets.amazonRaw(spark, rows), Datasets.amazonDims.map(_.name),
      NProviders, clusterFrac = 0.005, DefaultCfg, storage, seed = 43L, skewProviders = true)

  /** One federation and what the harnesses derive from it: the in-memory
    * replay of its clustered tensor, built on first use, and the exact
    * answers of the queries replayed on it. Both live as long as the
    * context, so dropping the context frees them.
    */
  final class Context(val setup: FederationSetup) {
    lazy val mem: Federation = setup.inMemory(setup.federation.cfg)

    private val exacts = mutable.Map.empty[RangeQuery, Double]
    def memExact(q: RangeQuery): Double = exacts.getOrElseUpdate(q, mem.exactWithTime(q)._1)
  }

  private def aggName(a: Agg): String = a match {
    case Agg.Count      => "COUNT"
    case Agg.SumMeasure => "SUM"
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** One measured point of a figure: a query workload and the protocol
    * settings it runs at.
    */
  private final case class Point(qs: Seq[RangeQuery], sr: Double, eps: Double,
                                 useSmc: Boolean, seed: Long)

  /** Median wall-clock speed-up: one Spark run per query, with the exact
    * baseline re-measured adjacent to each approximate run (stale baselines
    * drift under GC/page-cache churn), after two unmeasured warm-up runs of
    * each code path.
    */
  private def timeWorkload(fed: Federation, p: Point): Double = {
    for (w <- 0 until 2) {
      val q = p.qs(w % p.qs.size)
      fed.run(q, p.sr, p.eps, p.useSmc, seed = p.seed - 7, exactBaseline = Some((0.0, 0.0)))
      fed.exactWithTime(q)
    }
    median(p.qs.zipWithIndex.map { case (q, i) =>
      fed.run(q, p.sr, p.eps, p.useSmc, seed = p.seed + i).speedup
    })
  }

  /** [[ErrReps]] in-memory protocol repetitions per query (identical math
    * to the Spark runs; noise variance averaged out without a Spark job per
    * repetition), against the in-memory exact answers.
    */
  private def errRuns(ctx: Context, p: Point): Seq[RunResult] =
    for ((q, i) <- p.qs.zipWithIndex; r <- 0 until ErrReps) yield
      ctx.mem.run(q, p.sr, p.eps, p.useSmc, seed = p.seed * 1000 + i * 31 + r,
        exactBaseline = Some((ctx.memExact(q), 0.0)))

  /** Each point's median speed-up and its error repetitions. The timing
    * pass runs for every point first and the error passes after: the
    * in-memory error replay churns hundreds of MB and would pollute later
    * timings.
    */
  private def measure(ctx: Context, points: Seq[Point]): Seq[(Double, Seq[RunResult])] = {
    ctx.mem // hoist the big in-memory collect out of the timed region
    val sps = points.map(timeWorkload(ctx.setup.federation, _))
    sps.zip(points.map(errRuns(ctx, _)))
  }

  // ----------------------------------------------------------------------
  // Printed form of a table/figure
  // ----------------------------------------------------------------------

  /** A paper table/figure as printed: the banner title, what the paper
    * reports, and the column header.
    */
  final case class Figure(title: String, paper: String, header: Seq[String]) {
    /** The `== title ==` banner; the bench suites add what the paper reports. */
    def banner(withPaper: Boolean): String =
      if (withPaper) s"== $title ($paper) ==" else s"== $title =="
  }

  /** `fig`'s banner, any context lines, then `rows` as a table. */
  def report(fig: Figure, rows: Seq[Product], withPaper: Boolean, context: String*): String =
    ((fig.banner(withPaper) +: context) :+ fmt(rows, fig.header)).mkString("\n")

  // ----------------------------------------------------------------------
  // Figures 4–7: error and speed-up along one axis (n, sr or ε)
  // ----------------------------------------------------------------------

  /** The parameter a sweep varies, and the column that reports its value. */
  sealed abstract class Axis(val column: String) {
    /** `x` as its column prints it: a whole number, ε to four decimals. */
    def show(x: Double): String = x.toLong.toString
  }
  object Axis {
    /** Number of query dimensions `n`. */
    case object N extends Axis("n")
    /** Sampling rate, in percent. */
    case object Sr extends Axis("sr%")
    /** Total privacy budget ε. */
    case object Eps extends Axis("eps") {
      override def show(x: Double): String = f"$x%.4f"
    }
  }

  /** One dataset's line of a sweep: its axis values and the sampling rate
    * held fixed (unset on the sr axis, which sets its own).
    */
  final case class Series(dataset: String, dims: Seq[DimSpec], xs: Seq[Double],
                          sr: Double = Double.NaN)

  /** One row of a sweep: axis value `x` in the axis's unit. */
  final case class SweepRow(dataset: String, x: Double, agg: String,
                            avgRelErr: Double, avgSpeedup: Double)

  /** A sweep figure of the paper: its Adult and Amazon series along `axis`. */
  final case class Sweep(title: String, paper: String, axis: Axis, seed: Long,
                         adult: Series, amazon: Series) {
    def rows(adultCtx: Context, amazonCtx: Context, m: Int): Seq[SweepRow] =
      sweep(adultCtx, adult, axis, m, seed) ++ sweep(amazonCtx, amazon, axis, m, seed)

    /** Banner and table of `rows`, the axis value in the axis's format. */
    def report(rows: Seq[SweepRow], withPaper: Boolean): String =
      Tables.report(
        Figure(title, paper, Seq("dataset", axis.column, "agg", "avgRelErr", "avgSpeedup")),
        rows.map(r => (r.dataset, axis.show(r.x), r.agg, r.avgRelErr, r.avgSpeedup)), withPaper)
  }

  private val Epss = Seq(0.1, 0.4, 0.7, 1.0, 1.3)
  private val SrsPct = Seq(5.0, 10.0, 15.0, 20.0)

  /** Figure 4 + Figure 7 dimension axis (§6.2): sr = 20% Adult / 5% Amazon, ε = 1. */
  val F4: Sweep = Sweep("Figure 4/7: dimension-based analysis",
    "paper: err<=17% Adult, <=5% Amazon; speedup 6-8x Amazon, falling with n", Axis.N, 7L,
    Series("Adult", Datasets.adultDims, (2 to 6).map(_.toDouble), sr = 0.20),
    Series("Amazon", Datasets.amazonDims, (2 to 5).map(_.toDouble), sr = 0.05))

  /** Figure 5 (§6.3): n = 4, sr ∈ {5,10,15,20}%, ε = 1. */
  val F5: Sweep = Sweep("Figure 5: sampling-rate-based analysis",
    "paper: err falls with sr, speedup falls with sr, up to ~7x Amazon", Axis.Sr, 17L,
    Series("Adult", Datasets.adultDims, SrsPct),
    Series("Amazon", Datasets.amazonDims, SrsPct))

  /** Figure 6 + Figure 7 ε axis (§6.4): n = 4, ε ∈ [0.1, 1.3], sr = 10% Adult / 5% Amazon. */
  val F6: Sweep = Sweep("Figure 6/7: privacy-budget-based analysis",
    "paper: err falls with eps; speedup flat in eps", Axis.Eps, 29L,
    Series("Adult", Datasets.adultDims, Epss, sr = 0.10),
    Series("Amazon", Datasets.amazonDims, Epss, sr = 0.05))

  /** Relative error and speed-up of `series` along `axis`: for each axis
    * value and both aggregations, `m` qualifying queries, timed on Spark
    * and error-averaged on the in-memory replay. Off the axis, n = 4,
    * ε = 1 and sr = `series.sr`.
    */
  def sweep(ctx: Context, series: Series, axis: Axis, m: Int, seed: Long): Seq[SweepRow] = {
    val fed = ctx.setup.federation
    val points = for (x <- series.xs; agg <- Seq(Agg.Count, Agg.SumMeasure)) yield {
      val (n, sr, eps, key) = axis match {
        case Axis.N   => (x.toInt, series.sr, 1.0, x.toLong)
        case Axis.Sr  => (4, x / 100, 1.0, math.round(x))
        case Axis.Eps => (4, series.sr, x, math.round(x * 10))
      }
      // the n axis draws one workload per n, the others one per aggregation
      val workloadSeed = if (axis == Axis.N) seed + n else seed + (if (agg == Agg.Count) 0 else 1)
      val qs = Datasets.qualifyingWorkload(fed, series.dims, m, n, agg, workloadSeed)
      (x, agg, Point(qs, sr, eps, useSmc = false, seed * 100 + key))
    }
    points.zip(measure(ctx, points.map(_._3))).map { case ((x, agg, _), (sp, runs)) =>
      SweepRow(series.dataset, x, aggName(agg), mean(runs.map(_.relativeError)), sp)
    }
  }

  // ----------------------------------------------------------------------
  // Figure 8 (SMC vs per-provider DP noise)
  // ----------------------------------------------------------------------

  final case class SmcRow(queryId: Int, mode: String, noiseAbsMin: Double,
                          noiseAbsMax: Double, avgRelErr: Double, avgSpeedup: Double)

  val F8: Figure = Figure("Figure 8: SMC effect on speed-up and accuracy",
    "paper: SMC ~ no overhead, tighter noise",
    Seq("query", "mode", "|noise|min", "|noise|max", "avgRelErr", "avgSpeedup"))

  // Figure 8's workload: two-dimensional COUNT queries at sr = 10 %, ε = 1
  private val F8Queries = 5
  private val F8Sr = 0.1
  private val F8Eps = 1.0
  private val F8Seed = 37L

  /** SMC vs DP release (§6.5): [[F8Queries]] two-dimensional COUNT queries
    * on the Adult-like federation `ctx`, each one point per release mode,
    * measured as the sweep's points are: the realized |noise| range and
    * mean error over the [[ErrReps]] in-memory repetitions, and the Spark
    * speed-up. Both modes of a query share its seed, so they sample the
    * same clusters and differ only in the release.
    */
  def smcVsDp(ctx: Context): Seq[SmcRow] = {
    val qs = Datasets.qualifyingWorkload(ctx.setup.federation, Datasets.adultDims, F8Queries, 2,
      Agg.Count, F8Seed)
    val points = for ((q, qi) <- qs.zipWithIndex; smc <- Seq(false, true))
      yield (qi, Point(Seq(q), F8Sr, F8Eps, smc, F8Seed * 100 + qi))
    points.zip(measure(ctx, points.map(_._2))).map { case ((qi, p), (sp, runs)) =>
      val noise = runs.map(r => math.abs(r.noise))
      SmcRow(qi, if (p.useSmc) "SMC" else "DP", noise.min, noise.max,
        mean(runs.map(_.relativeError)), sp)
    }
  }

  // ----------------------------------------------------------------------
  // Figure 1 (row sharing vs result sharing in SMC)
  // ----------------------------------------------------------------------

  final case class RowShareRow(totalRows: Long, rowSharingMs: Double,
                               resultSharingMs: Double, ratio: Double)

  val F1: Figure = Figure("Figure 1: SMC row sharing vs result sharing",
    "paper: result sharing constant, >>100x cheaper",
    Seq("rows", "rowSharingMs", "resultSharingMs", "ratio"))

  /** The table sizes Figure 1 is drawn at: 1/8, 1/4, 1/2 and all of `maxRows`. */
  def rowSharingSizes(maxRows: Long): Seq[Long] = Seq(8, 4, 2, 1).map(maxRows / _)

  private val F1Seed = 51L
  private val F1QueriesPerSize = 3

  /** SMC cost simulation (§2, Figure 1): share rows vs share results for
    * random 2-dim range queries over Adult-like data at growing sizes.
    */
  def rowSharingSimulation(spark: SparkSession, sizes: Seq[Long]): Seq[RowShareRow] = {
    val rng = new Random(F1Seed)
    val dims = Datasets.adultDims
    sizes.map { rows =>
      val raw = Datasets.adultRaw(spark, rows, F1Seed).withColumn(
        Clustering.ProviderCol,
        least(lit(NProviders - 1), floor(rand(F1Seed) * NProviders)).cast("int"))
      val collected = raw.collect()
      val parties = (0 until NProviders).map { pid =>
        val mine = collected.filter(_.getInt(dims.size) == pid)
        RowSharingSmc.LocalRows(
          dims.map(_.name).toArray,
          dims.indices.map(d => mine.map(_.getInt(d))).toArray,
          Array.fill(mine.length)(1L))
      }
      // unmeasured warm-up queries absorb JIT compilation of both paths
      val warmQ = Datasets.randomQuery(dims, 2, Agg.Count, rng)
      RowSharingSmc.evaluateRowSharing(parties, warmQ, NProviders, rng)
      RowSharingSmc.evaluateResultSharing(parties, warmQ, NProviders, rng)
      val times = (0 until F1QueriesPerSize).map { _ =>
        val q = Datasets.randomQuery(dims, 2, Agg.Count, rng)
        val (a1, tRow) = RowSharingSmc.evaluateRowSharing(parties, q, NProviders, rng)
        val (a2, tRes) = RowSharingSmc.evaluateResultSharing(parties, q, NProviders, rng)
        require(math.abs(a1 - a2) < 1e-6, s"SMC paths disagree: $a1 vs $a2")
        (tRow, tRes)
      }
      val rowMs = times.map(_._1).sum / times.size
      val resMs = times.map(_._2).sum / times.size
      RowShareRow(rows, rowMs, resMs, rowMs / math.max(resMs, 1e-9))
    }
  }

  // ----------------------------------------------------------------------
  // Table 1 (NBC learning attack)
  // ----------------------------------------------------------------------

  final case class AttackRow(composition: String, agg: String, xi: Double,
                             accuracy: Double, perQueryEps: Double)

  val T1: Figure = Figure("Table 1: inference accuracy based on xi",
    "paper: <1% in every cell", Seq("composition", "agg", "xi", "accuracy", "perQueryEps"))

  // Table 1's grid (§6.6): the analyst's total budgets ξ and ψ, each query's sr
  private val T1Xis = Seq(1.0, 20.0, 50.0, 100.0)
  private val T1Psi = 1e-6
  private val T1Sr = 0.1
  private val T1Seed = 61L

  /** The context line printed above Table 1. */
  def attackBaselines(control: Double, majority: Double): String =
    f"no-privacy control (exact answers): accuracy = ${control * 100}%.2f%%; " +
      f"majority-class baseline (zero queries): ${majority * 100}%.2f%%"

  /** Resilience to the NBC attack (§6.6, Table 1): train the classifier
    * through the private pipeline under each composition regime and measure
    * prediction accuracy; also returns a no-privacy control (`EXACT`) that
    * shows the attack genuinely works on unprotected answers.
    *
    * Runs on [[repro.core.InMemoryClusterEval]]: the attack issues
    * `nQueries` (≈3.9k) full protocol executions per cell, whose per-cluster
    * scans are replayed in memory (identical math — DESIGN.md §3).
    *
    * @return (per-cell attack accuracies, no-privacy control accuracy,
    *          majority-class baseline — what a constant predictor scores
    *          with zero queries; the information-free floor given the
    *          skewed SA marginal)
    */
  def attackAnalysis(spark: SparkSession, rows: Long): (Seq[AttackRow], Double, Double) = {
    val dims = Datasets.attackQiDims :+ Datasets.attackSaDim
    val setup = Setup.build(spark, Datasets.attackRaw(spark, rows),
      dims.map(_.name), NProviders, clusterFrac = 0.01, DefaultCfg, Storage.Cached, seed = 44L)
    val mem = repro.core.InMemoryClusterEval.fromDataFrame(setup.clustered, setup.dims)

    val attack = new NbcAttack(Datasets.attackSaDim, Datasets.attackQiDims)

    // ground truth: (QI assignment, SA value, #individuals) from the tensor
    val truth = setup.clustered
      .groupBy(dims.map(d => col(d.name)): _*)
      .agg(sum(col(Tensor.MeasureCol)).as("w"))
      .collect()
      .map { r =>
        val qi = Datasets.attackQiDims.zipWithIndex.map { case (d, i) => d.name -> r.getInt(i) }.toMap
        (qi, r.getInt(Datasets.attackQiDims.size), r.getLong(dims.size))
      }
      .toSeq

    // no-privacy control: exact answers, no sampling, no noise
    val exactModel = attack.train(q => mem.exactTotal(q), Agg.Count)
    val controlAcc = attack.accuracy(exactModel, truth)

    // information-free floor: always predict the most frequent SA value
    val totalW = truth.map(_._3).sum.toDouble
    val majorityBaseline = truth.groupBy(_._2).values.map(_.map(_._3).sum).max / totalW

    val n = attack.nQueries
    val rows2 = for {
      (comp, budgetOf) <- Seq[(String, (Double) => Composition.Budget)](
        ("Sequential", xi => Composition.sequentialPerQuery(xi, T1Psi, n)),
        ("Advanced", xi => Composition.advancedPerQuery(xi, T1Psi, n)),
        ("Coalition", xi => Composition.coalitionPerQuery(xi, T1Psi)))
      agg <- Seq(Agg.Count, Agg.SumMeasure)
      xi <- T1Xis
    } yield {
      val b = budgetOf(xi)
      val fedQ = new Federation(setup.metas, mem, DefaultCfg.copy(delta = b.delta))
      var qIdx = 0
      val answer: RangeQuery => Double = { q =>
        qIdx += 1
        fedQ.run(q, T1Sr, b.eps, useSmc = false,
          seed = T1Seed + qIdx + math.round(xi * 7) + (if (agg == Agg.Count) 0 else 1),
          exactBaseline = Some((0.0, 0.0))).answer
      }
      val model = attack.train(answer, agg)
      AttackRow(comp, aggName(agg), xi, attack.accuracy(model, truth), b.eps)
    }
    (rows2, controlAcc, majorityBaseline)
  }

  // ----------------------------------------------------------------------
  // Formatting
  // ----------------------------------------------------------------------

  def fmt(rows: Seq[Product], header: Seq[String]): String = {
    val cells = rows.map(_.productIterator.map {
      case d: Double => f"$d%.4f"
      case x         => x.toString
    }.toSeq)
    val widths = header.indices.map(i => (header(i) +: cells.map(_(i))).map(_.length).max)
    def line(vals: Seq[String]) =
      vals.zip(widths).map { case (v, w) => v.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: cells.map(line)).mkString("\n")
  }
}
