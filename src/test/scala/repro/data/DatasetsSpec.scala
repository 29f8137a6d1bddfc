package repro.data

import scala.util.Random

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestFixtures}
import repro.core.Agg

/** Synthetic dataset generators: domains, determinism, planted skew, and
  * workload construction.
  */
class DatasetsSpec extends SparkSpec {

  test("adult-like rows respect every dimension domain") {
    val df = Datasets.adultRaw(spark, 5000, seed = 1)
    for (d <- Datasets.adultDims) {
      val mm = df.agg(min(col(d.name)), max(col(d.name))).head
      assert(mm.getInt(0) >= d.lo && mm.getInt(1) <= d.hi, s"dim ${d.name}")
    }
  }

  test("amazon-like rows respect every dimension domain") {
    val df = Datasets.amazonRaw(spark, 5000, seed = 2)
    for (d <- Datasets.amazonDims) {
      val mm = df.agg(min(col(d.name)), max(col(d.name))).head
      assert(mm.getInt(0) >= d.lo && mm.getInt(1) <= d.hi, s"dim ${d.name}")
    }
  }

  test("attack rows respect SA and QI domains") {
    val df = TestFixtures.attackRawSmall
    for (d <- Datasets.attackQiDims :+ Datasets.attackSaDim) {
      val mm = df.agg(min(col(d.name)), max(col(d.name))).head
      assert(mm.getInt(0) >= d.lo && mm.getInt(1) <= d.hi, s"dim ${d.name}")
    }
  }

  test("generators are deterministic in (rows, seed)") {
    val a = Datasets.adultRaw(spark, 1000, seed = 5).collect().map(_.toString).sorted
    val b = Datasets.adultRaw(spark, 1000, seed = 5).collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("different seeds change the data") {
    val a = Datasets.adultRaw(spark, 1000, seed = 5).collect().map(_.toString).sorted
    val b = Datasets.adultRaw(spark, 1000, seed = 6).collect().map(_.toString).sorted
    assert(!a.sameElements(b))
  }

  test("planted skew: age distribution is far from uniform") {
    val df = Datasets.adultRaw(spark, 20000, seed = 7)
    val spec = Datasets.adultDims.head
    val top = df.groupBy("age").count().orderBy(desc("count")).head.getLong(1)
    val uniform = 20000.0 / spec.size
    assert(top > 2 * uniform, s"top frequency $top vs uniform $uniform")
  }

  test("attack SA is correlated with QI (conditional mode shifts)") {
    val df = TestFixtures.attackRawSmall
    def modalSa(qi1: Int): Double =
      df.filter(col("qi1") === qi1).agg(avg(col("sa"))).head.getDouble(0)
    assert(modalSa(8) - modalSa(1) > 10.0, "expected avg(sa) to grow with qi1")
  }

  test("random workload has the requested shape") {
    val rng = new Random(9)
    val qs = Seq.fill(25)(Datasets.randomQuery(Datasets.adultDims, 3, Agg.Count, rng))
    assert(qs.size == 25)
    assert(qs.forall(_.nDims == 3))
    assert(qs.forall(_.agg == Agg.Count))
  }

  test("workload ranges stay inside the declared domains") {
    val byName = Datasets.adultDims.map(d => d.name -> d).toMap
    val rng = new Random(10)
    val qs = Seq.fill(50)(Datasets.randomQuery(Datasets.adultDims, 4, Agg.SumMeasure, rng))
    for (q <- qs; r <- q.ranges) {
      val d = byName(r.dim)
      assert(r.lb >= d.lo && r.ub <= d.hi, s"range $r outside ${d}")
    }
  }

  test("workload dimensions within one query are distinct") {
    val rng = new Random(11)
    val qs = Seq.fill(50)(Datasets.randomQuery(Datasets.adultDims, 5, Agg.Count, rng))
    assert(qs.forall(q => q.ranges.map(_.dim).distinct.size == 5))
  }

  test("workloads are deterministic in the seed") {
    def workload(seed: Long) = {
      val rng = new Random(seed)
      Seq.fill(10)(Datasets.randomQuery(Datasets.adultDims, 2, Agg.Count, rng))
    }
    assert(workload(12) == workload(12))
  }

  test("qualifying workload triggers approximation at every provider") {
    val fed = TestFixtures.adultSmall.federation
    val qs = Datasets.qualifyingWorkload(fed, Datasets.adultDims, m = 5, n = 2,
      Agg.Count, seed = 13)
    assert(qs.size == 5)
    for (q <- qs; p <- fed.providers)
      assert(p.covering(q)._1.size >= p.nMin, s"query $q provider ${p.providerId}")
  }

  test("n larger than the dimension count is rejected") {
    intercept[IllegalArgumentException](
      Datasets.randomQuery(Datasets.adultDims, 7, Agg.Count, new Random(14)))
    // a qualifying workload draws its queries the same way: it must not
    // return queries on fewer dimensions
    val e = intercept[IllegalArgumentException](Datasets.qualifyingWorkload(
      TestFixtures.adultSmall.federation, Datasets.adultDims, m = 1, n = 7, Agg.Count, seed = 14))
    assert(e.getMessage.contains("n=7 out of range"), e.getMessage)
  }

  test("dimension spec sanity") {
    assert(DimSpec("x", 0, 9).size == 10)
    intercept[IllegalArgumentException](DimSpec("x", 5, 4))
  }
}
