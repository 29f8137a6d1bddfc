package repro.attack

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestFixtures}
import repro.core.{Agg, InMemoryClusterEval, Tensor}
import repro.data.{Datasets, DimSpec}
import repro.federation._

/** Learning-based attack (§6.6): the NBC genuinely works on exact answers
  * (control) and collapses to random guessing through the private pipeline.
  */
class NaiveBayesSpec extends SparkSpec {

  // a reduced attack (one QI dim) keeps the unit test fast: 901 queries
  private val sa = Datasets.attackSaDim
  private val qi1 = Datasets.attackQiDims.take(1)
  private lazy val smallAttack = new NbcAttack(sa, qi1)
  private lazy val fullAttack = new NbcAttack(sa, Datasets.attackQiDims)

  private lazy val setup: FederationSetup = {
    val dims = (Datasets.attackQiDims :+ sa).map(_.name)
    Setup.build(spark, TestFixtures.attackRawSmall, dims, nProviders = 4,
      clusterFrac = 0.01, TestFixtures.cfg, Storage.Cached, seed = 44L)
  }
  private lazy val mem = InMemoryClusterEval.fromDataFrame(setup.clustered, setup.dims)

  private lazy val truth: Seq[(Map[String, Int], Int, Long)] = setup.clustered
    .groupBy(setup.dims.map(col): _*)
    .agg(sum(col(Tensor.MeasureCol)).as("w"))
    .collect()
    .map { r =>
      val qi = Datasets.attackQiDims.zipWithIndex.map { case (d, i) => d.name -> r.getInt(i) }.toMap
      (qi, r.getInt(Datasets.attackQiDims.size), r.getLong(setup.dims.size))
    }
    .toSeq

  private def truthFor(attack: NbcAttack): Seq[(Map[String, Int], Int, Long)] =
    truth.map { case (qi, s, w) => (qi.view.filterKeys(attack.qiDims.map(_.name).toSet).toMap, s, w) }

  test("nQueries formula: 1 + |SA| + |SA| * sum(|QI|)") {
    assert(smallAttack.nQueries == 1 + 100 + 100 * 8)
    assert(fullAttack.nQueries == 1 + 100 + 100 * (8 + 14 + 16))
  }

  test("training query plan size matches the formula") {
    assert(smallAttack.trainingQueries(Agg.Count).size == smallAttack.nQueries)
    assert(fullAttack.trainingQueries(Agg.SumMeasure).size == fullAttack.nQueries)
  }

  test("training queries are point/full ranges in the right order") {
    val qs = smallAttack.trainingQueries(Agg.Count)
    assert(qs.head.ranges == Seq(repro.core.DimRange(sa.name, sa.lo, sa.hi)))
    assert(qs(1).ranges == Seq(repro.core.DimRange(sa.name, 1, 1)))
    val firstJoint = qs(1 + sa.size)
    assert(firstJoint.ranges.map(_.dim) == Seq("qi1", sa.name))
  }

  test("control: single-QI NBC on exact answers beats the 1% random baseline") {
    val model = smallAttack.train(q => mem.exactTotal(q), Agg.SumMeasure)
    val acc = smallAttack.accuracy(model, truthFor(smallAttack))
    assert(acc > 0.025, s"control accuracy $acc — planted correlation not learned")
  }

  test("control: full-QI NBC on exact answers is substantially more accurate") {
    val model = fullAttack.train(q => mem.exactTotal(q), Agg.SumMeasure)
    val acc = fullAttack.accuracy(model, truthFor(fullAttack))
    val small = smallAttack.accuracy(
      smallAttack.train(q => mem.exactTotal(q), Agg.SumMeasure), truthFor(smallAttack))
    assert(acc > small, s"full-QI accuracy $acc should beat single-QI $small")
    assert(acc > 0.05, s"full-QI control accuracy $acc")
  }

  test("attack through the private pipeline collapses toward random") {
    val b = repro.dp.Composition.sequentialPerQuery(1.0, 1e-6, smallAttack.nQueries)
    val fedQ = new Federation(setup.metas, mem, TestFixtures.cfg.copy(delta = b.delta))
    var i = 0
    val model = smallAttack.train({ q =>
      i += 1
      fedQ.run(q, 0.1, b.eps, useSmc = false, seed = 1000 + i,
        exactBaseline = Some((0.0, 0.0))).answer
    }, Agg.Count)
    val acc = smallAttack.accuracy(model, truthFor(smallAttack))
    val control = smallAttack.accuracy(
      smallAttack.train(q => mem.exactTotal(q), Agg.SumMeasure), truthFor(smallAttack))
    assert(acc < control, s"protected accuracy $acc vs control $control")
    assert(acc < 0.04, s"protected accuracy $acc should be near the 1% random baseline")
  }

  test("model predictions are cached per QI combination and within domain") {
    val model = smallAttack.train(q => mem.exactTotal(q), Agg.Count)
    for (v <- qi1.head.lo to qi1.head.hi) {
      val pred = model.predict(Map("qi1" -> v))
      assert(pred >= sa.lo && pred <= sa.hi)
    }
  }

  test("predict is deterministic") {
    val model = smallAttack.train(q => mem.exactTotal(q), Agg.Count)
    assert(model.predict(Map("qi1" -> 3)) == model.predict(Map("qi1" -> 3)))
  }

  test("accuracy is weighted by individuals, bounded in [0,1]") {
    val model = NbcModel(Seq(1, 2), 10.0, Map(1 -> 6.0, 2 -> 4.0),
      Map(("q", 1, 1) -> 6.0, ("q", 1, 2) -> 0.0))
    val attack = new NbcAttack(DimSpec("sa", 1, 2), Seq(DimSpec("q", 1, 1)))
    // model always predicts sa=1 for q=1; 6 of 10 individuals have sa=1
    val acc = attack.accuracy(model, Seq((Map("q" -> 1), 1, 6L), (Map("q" -> 1), 2, 4L)))
    assert(acc == 0.6)
  }

  test("noisy negative counts are floored, keeping the posterior finite") {
    val model = NbcModel(Seq(1, 2), 100.0, Map(1 -> -5.0, 2 -> 3.0),
      Map(("q", 1, 1) -> -2.0, ("q", 1, 2) -> 1.0))
    val pred = model.predict(Map("q" -> 1))
    assert(pred == 1 || pred == 2)
  }
}
