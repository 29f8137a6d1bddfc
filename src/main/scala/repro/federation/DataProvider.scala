package repro.federation

import scala.util.Random

import repro.core._
import repro.dp.{Exponential, Laplace, Sensitivity, SmoothSensitivity}

/** One provider's un-released local answer for a query.
  *
  * `sensNumerator` is the numerator of the Laplace scale used at release:
  * `2·Δ_E` (smooth sensitivity, Algorithm 3 line 10) on the approximation
  * path, or the plain global sensitivity 1 on the exact (`N^Q < N^min`)
  * path. Release noise is `Lap(sensNumerator / ε^E)`.
  */
final case class LocalAnswer(estimate: Double, sensNumerator: Double)

/** A data provider in the federation (paper §5.3).
  *
  * Holds its offline metadata ([[repro.core.ProviderMetadata]], Algorithm 1);
  * the scan of its sampled clusters is batched by [[Federation.run]]. All privacy
  * decisions — what leaves this object — go through DP mechanisms:
  * Laplace-perturbed summaries (Eq 5), EM cluster sampling (Algorithm 2),
  * and smooth-sensitivity-calibrated release (Algorithm 3). `N^min` comes
  * from the federation's `cfg`; the proportion floor is fixed (DESIGN.md §4).
  */
final class DataProvider(val meta: ProviderMetadata, cfg: FedConfig) {
  def providerId: Int = meta.providerId

  /** `N^min`, the approximation threshold. */
  def nMin: Int = cfg.nMin

  /** [[covering]] drops clusters with `R` below this fraction of the mean. */
  private final val RFloorFrac = 0.02

  /** `C^Q` and the approximated proportions `R̂` (Eq 1/2), from metadata
    * only — no data scan.
    *
    * Two refinements over the raw Eq 2 box test (DESIGN.md §4):
    *  - clusters with `R = 0` are dropped: a zero per-dimension marginal
    *    proves the cluster holds no matching row, so it cannot contribute;
    *  - clusters with `R` below `RFloorFrac ×` the mean positive proportion
    *    are dropped — a safety net against the paper's scenario-4 local
    *    sensitivity `1/p`, which explodes when a near-empty boundary cluster
    *    is EM-sampled (a regime the paper's page-clustered data never
    *    enters). The bias is at most `RFloorFrac` of the per-cluster average
    *    mass per dropped cluster, and `1/p ≤ N^Q/RFloorFrac` afterwards.
    */
  def covering(q: RangeQuery): (Vector[ClusterMeta], Vector[Double]) = {
    val cq = meta.coveringClusters(q)
    val rs = meta.proportions(cq, q)
    val pos = cq.zip(rs).filter(_._2 > 0.0)
    if (pos.isEmpty) return (Vector.empty, Vector.empty)
    val theta = RFloorFrac * (pos.map(_._2).sum / pos.size)
    val kept = pos.filter(_._2 >= theta)
    (kept.map(_._1), kept.map(_._2))
  }

  /** Allocation-phase summary (Eq 5): `Ñ^Q` and `Ãvg(R̂)`, each perturbed
    * with half of the ε^O budget.
    */
  def summary(q: RangeQuery, epsO: Double, lap: Laplace): ProviderSummary = {
    val (cq, rs) = covering(q)
    val avg = if (cq.isEmpty) 0.0 else rs.sum / cq.size
    val dAvg = Sensitivity.deltaAvgR(meta.S, q.nDims, nMin)
    ProviderSummary(
      providerId,
      lap.perturb(cq.size.toDouble, Sensitivity.deltaNQ, epsO / 2.0),
      lap.perturb(avg, dAvg, epsO / 2.0))
  }

  /** Phase 1 of the online answer (steps 4–5): decide which clusters to
    * scan. Returns an exact-path plan when `N^Q < N^min`, otherwise the
    * EM-sampled cluster ids together with the probabilities/proportions the
    * estimation phase needs. No data is scanned here.
    */
  def plan(q: RangeQuery, s: Int, epsS: Double, rng: Random): SamplingPlan = {
    val (cq, rs) = covering(q)
    val nQ = cq.size

    if (nQ < nMin) {
      // §5.3.1: the approximation gate — compute Q "regularly" over the
      // covering clusters; release sensitivity is the plain GS of 1.
      SamplingPlan(providerId, exactPath = true, cq.map(_.clusterId),
        ps = Vector.empty, rs = Vector.empty, sumR = rs.sum, nQ = nQ)
    } else {
      val ps = meta.samplingProbabilities(rs)
      val take = math.min(math.max(s, 1), nQ)
      val picked = Exponential.sampleWithoutReplacement(
        ps, take, epsS, Sensitivity.deltaP(nMin), rng)
      SamplingPlan(providerId, exactPath = false, picked.map(cq(_).clusterId),
        ps = picked.map(ps), rs = picked.map(rs), sumR = rs.sum, nQ = nQ)
    }
  }

  /** Phase 2 (step 6): turn the per-cluster results `Q(C)` of the planned
    * scan into the Hansen–Hurwitz estimate and its smooth sensitivity.
    * `qc` maps the plan's cluster ids to their query results.
    */
  def finish(q: RangeQuery, p: SamplingPlan, qc: Map[Int, Double],
             epsE: Double, delta: Double): LocalAnswer = {
    if (p.exactPath) {
      val exact = p.clusterIds.iterator.map(qc.getOrElse(_, 0.0)).sum
      return LocalAnswer(exact, sensNumerator = 1.0)
    }
    val pairs = p.clusterIds.zipWithIndex.map { case (cid, i) => (qc(cid), p.ps(i)) }
    val estimate = Estimator.hansenHurwitz(pairs)

    val dR = Sensitivity.deltaR(meta.S, q.nDims)
    val perClusterSls = p.clusterIds.zipWithIndex.map { case (cid, i) =>
      SmoothSensitivity.forCluster(qC = qc(cid), r = p.rs(i), p = p.ps(i),
        sumR = p.sumR, dR = dR, eps = epsE, delta = delta)
    }
    val deltaE = SmoothSensitivity.forEstimator(perClusterSls)

    LocalAnswer(estimate, sensNumerator = 2.0 * deltaE)
  }
}

/** Output of [[DataProvider.plan]]: which clusters to scan and the sampling
  * state needed to finish the estimate.
  */
final case class SamplingPlan(providerId: Int, exactPath: Boolean,
                              clusterIds: Vector[Int], ps: Vector[Double],
                              rs: Vector[Double], sumR: Double, nQ: Int)
