package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestFixtures}
import repro.data.Datasets

/** Physical per-cluster evaluation: Spark and in-memory implementations
  * agree with each other, with brute force, and with the DuckDB oracle.
  */
class ClusterEvalSpec extends SparkSpec {

  private lazy val fed = TestFixtures.adultSmall
  private lazy val sparkEval = new SparkClusterEval(fed.clustered)
  private lazy val memEval = InMemoryClusterEval.fromDataFrame(fed.clustered, fed.dims)

  private val q2 = RangeQuery(Agg.Count, Seq(DimRange("age", 20, 50), DimRange("edu", 3, 12)))
  private val qSum = RangeQuery(Agg.SumMeasure, Seq(DimRange("age", 25, 70)))

  test("exactTotal matches the DuckDB oracle (COUNT)") {
    val got = fed.clustered.filter(q2.predicate).agg(q2.aggregate().as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(q2, "t"), "t" -> fed.clustered)
    assert(sparkEval.exactTotal(q2) == got.head.getDouble(0))
  }

  test("exactTotal matches the DuckDB oracle (SUM)") {
    val got = fed.clustered.filter(qSum.predicate).agg(qSum.aggregate().as("answer"))
    Oracle.assertEquivalent(got, Oracle.sql(qSum, "t"), "t" -> fed.clustered)
    assert(sparkEval.exactTotal(qSum) == got.head.getDouble(0))
  }

  test("Spark and in-memory exactTotal agree on random queries") {
    val rng = new scala.util.Random(3)
    for (_ <- 1 to 10) {
      val q = Datasets.randomQuery(Datasets.adultDims, 1 + rng.nextInt(4),
        if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)
      assert(sparkEval.exactTotal(q) == memEval.exactTotal(q), s"query $q")
    }
  }

  test("perCluster agrees between Spark and in-memory evaluation") {
    val sampled = Map(0 -> Seq(0, 1, 2, 5), 1 -> Seq(0, 3))
    assert(sparkEval.perCluster(sampled, q2) == memEval.perCluster(sampled, q2))
    assert(sparkEval.perCluster(sampled, qSum) == memEval.perCluster(sampled, qSum))
  }

  test("perCluster matches brute-force per-cluster filtering") {
    val sampled = Map(0 -> Seq(1, 4), 2 -> Seq(0, 2))
    val got = sparkEval.perCluster(sampled, q2)
    for ((p, cs) <- sampled; c <- cs) {
      val expected = fed.clustered
        .filter(col(Clustering.ProviderCol) === p && col(Clustering.ClusterCol) === c && q2.predicate)
        .count().toDouble
      assert(got((p, c)) == expected, s"provider $p cluster $c")
    }
  }

  test("perCluster reports 0 for sampled clusters with no matching rows") {
    // a query matching nothing: age below the domain
    val qNone = RangeQuery(Agg.Count, Seq(DimRange("age", 1, 5)))
    val got = sparkEval.perCluster(Map(0 -> Seq(0, 1)), qNone)
    assert(got == Map((0, 0) -> 0.0, (0, 1) -> 0.0))
  }

  test("perCluster result keys exactly mirror the request") {
    val sampled = Map(0 -> Seq(0, 7), 1 -> Seq(2), 3 -> Seq(1, 2, 3))
    val got = memEval.perCluster(sampled, q2)
    val expectedKeys = for ((p, cs) <- sampled.toSeq; c <- cs) yield (p, c)
    assert(got.keySet == expectedKeys.toSet)
  }

  test("empty sample yields an empty result") {
    assert(sparkEval.perCluster(Map.empty, q2).isEmpty)
    assert(sparkEval.perCluster(Map(0 -> Seq.empty), q2).isEmpty)
  }

  test("perCluster over all providers' covering clusters sums to exactTotal") {
    val covering = fed.metas.map(m => m.providerId -> m.coveringClusters(q2).map(_.clusterId)).toMap
    assert(memEval.perCluster(covering, q2).values.sum == memEval.exactTotal(q2))
    assert(sparkEval.perCluster(covering, q2).values.sum == sparkEval.exactTotal(q2))
  }
}
