package repro.federation

import repro.{SparkSpec, TestFixtures}
import repro.core.{Agg, InMemoryClusterEval, RangeQuery}
import repro.data.Datasets

/** Protocol-level invariants swept over random queries on the in-memory
  * replay (fast — no Spark job per run).
  */
class ProtocolPropertySpec extends SparkSpec {

  private lazy val setup = TestFixtures.adultSmall
  private lazy val fed: Federation = setup.inMemory(TestFixtures.cfg)
  private val inf = Double.PositiveInfinity

  private def randomQueries(n: Int, seed: Long) = {
    val rng = new scala.util.Random(seed)
    Seq.fill(n)(Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4),
      if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng))
  }

  test("noiseless estimates stay within a bounded factor of the truth") {
    for ((q, i) <- randomQueries(25, 1).zipWithIndex) {
      val r = fed.run(q, 0.5, inf, useSmc = false, seed = 100 + i)
      if (r.exact > 500) // tiny answers have unstable relative error
        assert(r.relativeError < 0.6, s"query $q: err=${r.relativeError} exact=${r.exact}")
    }
  }

  test("scanned clusters never exceed covering clusters") {
    for ((q, i) <- randomQueries(25, 2).zipWithIndex) {
      val r = fed.run(q, 0.3, 1.0, useSmc = false, seed = 200 + i)
      assert(r.scannedClusters <= r.coveringClusters, s"query $q")
    }
  }

  test("estimates are finite and non-pathological under DP at eps=1") {
    for ((q, i) <- randomQueries(25, 3).zipWithIndex) {
      val r = fed.run(q, 0.2, 1.0, useSmc = false, seed = 300 + i)
      assert(!r.answer.isNaN && !r.answer.isInfinite, s"query $q: ${r.answer}")
      assert(r.noiseScale >= 0 && !r.noiseScale.isInfinite)
    }
  }

  test("SMC and DP paths share the same unreleased estimate (noiseless)") {
    for ((q, i) <- randomQueries(10, 4).zipWithIndex) {
      val a = fed.run(q, 0.3, inf, useSmc = false, seed = 400 + i)
      val b = fed.run(q, 0.3, inf, useSmc = true, seed = 400 + i)
      assert(math.abs(a.answer - b.answer) < 1e-3, s"query $q: ${a.answer} vs ${b.answer}")
    }
  }

  test("epsilon accounting is constant across queries and paths") {
    for ((q, i) <- randomQueries(10, 5).zipWithIndex; smc <- Seq(false, true)) {
      val r = fed.run(q, 0.2, 0.7, useSmc = smc, seed = 500 + i)
      assert(math.abs(r.epsSpent - 0.7) < 1e-12)
      assert(r.deltaSpent == fed.cfg.delta)
    }
  }

  /** `C^Q` without the proportion floor: the covering clusters of Eq 2
    * whose approximated proportion is positive.
    */
  private def zeroFloor(p: DataProvider, q: RangeQuery): Set[Int] =
    p.meta.coveringClusters(q).filter(_.proportion(q) > 0).map(_.clusterId).toSet

  test("dropping the proportion floor to 0 never loses covering clusters") {
    for (q <- randomQueries(15, 6); p <- fed.providers) {
      val (cq, _) = p.covering(q)
      assert(cq.map(_.clusterId).toSet.subsetOf(zeroFloor(p, q)), s"query $q provider ${p.providerId}")
    }
  }

  test("zero-floor covering set contains every cluster with matching rows") {
    val mem = InMemoryClusterEval.fromDataFrame(setup.clustered, setup.dims)
    for (q <- randomQueries(10, 7); p <- fed.providers) {
      val cq = zeroFloor(p, q)
      val withRows = mem
        .perCluster(Map(p.providerId -> p.meta.clusters.map(_.clusterId)), q)
        .collect { case ((_, c), v) if v > 0 => c }
        .toSet
      assert(withRows.subsetOf(cq), s"query $q provider ${p.providerId}: missing ${withRows.diff(cq)}")
    }
  }
}
