package repro.federation

import scala.util.Random

import repro.core.{ClusterEval, ProviderMetadata, RangeQuery}
import repro.dp.Laplace
import repro.smc.SecretSharing

/** Protocol-level configuration (paper §5.4 / §6.1): the failure
  * probability δ of the smooth-sensitivity release and the per-provider
  * approximation threshold `N^min`. The budget split is the paper's fixed
  * `ε^O = hp1·ε, ε^S = hp2·ε, ε^E = hp3·ε` with 0.1 / 0.1 / 0.8.
  */
final case class FedConfig(delta: Double = 1e-3, nMin: Int = 8) {
  require(delta > 0 && delta < 1, s"delta must be in (0,1), got $delta")
  require(nMin >= 1, s"N^min must be at least 1, got $nMin")

  val hp1: Double = 0.1
  val hp2: Double = 0.1
  val hp3: Double = 0.8
}

/** Outcome of one online query, with everything the evaluation section
  * reports: the private answer, ground truth, relative error, wall-clock
  * speed-up vs the plain-text scan, cluster-scan accounting, the realized
  * DP noise and the (ε, δ) spent.
  */
final case class RunResult(answer: Double, exact: Double, relativeError: Double,
                           approxMs: Double, exactMs: Double, speedup: Double,
                           scannedClusters: Int, coveringClusters: Int,
                           noise: Double, noiseScale: Double,
                           epsSpent: Double, deltaSpent: Double, usedSmc: Boolean)

/** The end-to-end online protocol (paper Figure 3): aggregator + providers.
  *
  * `run` executes the full query lifecycle — noisy summaries, allocation
  * (Eq 6), per-provider EM sampling + estimation, and the release, either
  * with per-provider Laplace noise (pure-DP path) or with a single noise
  * draw over the SMC-summed estimates (Algorithm 3 lines 7–11).
  */
final class Federation(metas: Seq[ProviderMetadata], eval: ClusterEval, val cfg: FedConfig) {
  require(metas.nonEmpty)

  val providers: Seq[DataProvider] = metas.map(new DataProvider(_, cfg))

  private val dims: Set[String] = providers.iterator.flatMap(_.meta.dimNames).toSet

  /** Plain-text exact answer over the whole federation, timed. */
  def exactWithTime(q: RangeQuery): (Double, Double) = {
    val t0 = System.nanoTime()
    val v = eval.exactTotal(q)
    (v, (System.nanoTime() - t0) / 1e6)
  }

  /** One online query at sampling rate `sr` and total budget `eps`.
    *
    * Inputs are checked before any random number is drawn: `eps` must be
    * positive (∞ runs the protocol without noise), `sr` in (0,1), every
    * query dimension one of the federation's, and an SMC release needs at
    * least two providers.
    *
    * @param exactBaseline optionally a precomputed `(answer, ms)` so ε
    *                      sweeps over the same query reuse one exact scan.
    */
  def run(q: RangeQuery, sr: Double, eps: Double, useSmc: Boolean, seed: Long,
          exactBaseline: Option[(Double, Double)] = None): RunResult = {
    require(eps > 0, s"privacy budget eps must be positive, got $eps")
    require(sr > 0 && sr < 1, s"sampling rate must be in (0,1), got $sr")
    require(q.ranges.forall(r => dims(r.dim)),
      s"unknown query dimension ${q.ranges.map(_.dim).filterNot(dims).mkString(", ")}; " +
        s"the federation has ${dims.toSeq.sorted.mkString(", ")}")
    require(!useSmc || providers.size >= 2,
      s"an SMC release needs at least 2 providers, the federation has ${providers.size}")
    val rng = new Random(seed)
    val lap = new Laplace(rng)
    val epsO = cfg.hp1 * eps
    val epsS = cfg.hp2 * eps
    val epsE = cfg.hp3 * eps

    val t0 = System.nanoTime()
    // (1–2) summaries, (3) allocation
    val summaries = providers.map(_.summary(q, epsO, lap))
    val alloc = Allocation.allocate(summaries, sr)
    // (4–5) local sampling decisions — metadata only, no scan
    val plans = providers.map(p => p.plan(q, alloc(p.providerId), epsS, rng))
    // one batched evaluation over every provider's sampled clusters: the
    // single-machine analog of the providers scanning in parallel
    val sampled = plans.map(p => p.providerId -> (p.clusterIds: Seq[Int])).toMap
    val qcAll = eval.perCluster(sampled, q)
    // (6) per-provider estimation + smooth sensitivity
    val answers = providers.zip(plans).map { case (p, pl) =>
      val qc = pl.clusterIds.iterator
        .map(c => c -> qcAll.getOrElse((pl.providerId, c), 0.0)).toMap
      p.finish(q, pl, qc, epsE, cfg.delta)
    }

    // (7) release
    val (answer, noise, noiseScale) =
      if (useSmc) {
        val sum = SecretSharing.secureSum(answers.map(_.estimate), rng)
        val maxNum = SecretSharing.secureMax(answers.map(_.sensNumerator), rng)
        val scale = maxNum / epsE
        val n = if (epsE.isPosInfinity) 0.0 else lap.noise(scale)
        (sum + n, n, scale)
      } else {
        val noisy = answers.map { a =>
          if (epsE.isPosInfinity) (a.estimate, 0.0)
          else { val n = lap.noise(a.sensNumerator / epsE); (a.estimate + n, n) }
        }
        val worstScale = answers.map(_.sensNumerator).max / epsE
        (noisy.map(_._1).sum, noisy.map(_._2).sum, worstScale)
      }
    val approxMs = (System.nanoTime() - t0) / 1e6

    val (exact, exactMs) = exactBaseline.getOrElse(exactWithTime(q))
    val relErr = math.abs(answer - exact) / math.max(math.abs(exact), 1e-12)

    RunResult(
      answer = answer, exact = exact, relativeError = relErr,
      approxMs = approxMs, exactMs = exactMs,
      speedup = exactMs / math.max(approxMs, 1e-9),
      scannedClusters = plans.map(_.clusterIds.size).sum,
      coveringClusters = plans.map(_.nQ).sum,
      noise = noise, noiseScale = noiseScale,
      // parallel composition across providers, sequential across the three
      // steps (paper §5.4): per query the analyst spends (ε, δ).
      epsSpent = epsO + epsS + epsE, deltaSpent = cfg.delta,
      usedSmc = useSmc)
  }
}
