package repro.core

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestFixtures}
import repro.data.Datasets

/** Cluster (page) assignment invariants, on a one-provider tensor and on
  * the federated fixture.
  */
class ClusteringSpec extends SparkSpec {

  private val dims = Datasets.adultDims.map(_.name)
  private lazy val tensor = {
    val t = Tensor.fromRows(TestFixtures.adultRawSmall, dims)
      .withColumn(Clustering.ProviderCol, lit(0)).cache()
    t.count(); t
  }

  private def assign(S: Int) = Clustering.assignPerProvider(tensor, dims, S)

  test("every cluster has at most S rows") {
    val S = 37
    val sizes = assign(S)
      .groupBy(Clustering.ClusterCol).count().collect().map(_.getLong(1))
    assert(sizes.forall(_ <= S))
  }

  test("only the last cluster may be smaller than S") {
    val S = 37
    val byId = assign(S)
      .groupBy(Clustering.ClusterCol).count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).sortBy(_._1)
    val full = byId.init
    assert(full.forall(_._2 == S))
    assert(byId.last._2 <= S)
  }

  test("cluster ids are contiguous from zero") {
    val ids = assign(50)
      .select(Clustering.ClusterCol).distinct().collect().map(_.getInt(0)).sorted
    assert(ids.toSeq == (0 until ids.length))
  }

  test("no rows are lost or duplicated by assignment") {
    val assigned = assign(41)
    assert(assigned.count() == tensor.count())
  }

  test("assignment is deterministic") {
    val a = assign(29).collect().map(_.toString).sorted
    val b = assign(29).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("sorted chunking gives clusters with tight first-dimension ranges") {
    // after sorting, the average per-cluster span of the leading dimension
    // must be far below the global span — that locality is what makes the
    // min/max metadata (Eq 2) selective.
    val S = 40
    val assigned = assign(S)
    val spans = assigned.groupBy(Clustering.ClusterCol)
      .agg((max(col(dims.head)) - min(col(dims.head))).as("span"))
      .collect().map(_.getInt(1))
    val globalSpan = tensor.agg(max(col(dims.head)) - min(col(dims.head))).head.getInt(0)
    assert(spans.sum.toDouble / spans.length < globalSpan / 2.0,
      s"avg span ${spans.sum.toDouble / spans.length} vs global $globalSpan")
  }

  test("per-provider assignment restarts cluster ids at 0 for each provider") {
    val fed = TestFixtures.adultSmall
    val mins = fed.clustered.groupBy(Clustering.ProviderCol)
      .agg(min(Clustering.ClusterCol)).collect().map(_.getInt(1))
    assert(mins.forall(_ == 0))
  }

  test("per-provider assignment respects S within every provider") {
    val fed = TestFixtures.adultSmall
    val oversize = fed.clustered
      .groupBy(Clustering.ProviderCol, Clustering.ClusterCol).count()
      .filter(col("count") > fed.S).count()
    assert(oversize == 0)
  }

  test("a tensor of r rows occupies ceil(r / S) clusters") {
    val rows = tensor.count()
    for (S <- Seq(10, 37, rows.toInt, rows.toInt + 1)) {
      val n = assign(S).select(Clustering.ClusterCol).distinct().count()
      assert(n == math.ceil(rows.toDouble / S).toLong, s"S=$S")
    }
  }

  test("non-positive cluster size is rejected") {
    intercept[IllegalArgumentException](assign(0))
  }
}
