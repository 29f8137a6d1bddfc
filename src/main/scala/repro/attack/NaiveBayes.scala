package repro.attack

import repro.core.{Agg, DimRange, RangeQuery}
import repro.data.DimSpec

/** Learned Naive Bayes classifier state (paper §6.6, after [Cormode 2010]):
  * counts harvested from COUNT/SUM range queries, from which the posterior
  * `P(y)·∏ P(v_i|y)/P(v_i)` is evaluated in log space.
  */
final case class NbcModel(saValues: Seq[Int], size: Double,
                          classCounts: Map[Int, Double],
                          jointCounts: Map[(String, Int, Int), Double]) {

  /** Count floor: noisy DP answers can be ≤ 0; probabilities are clamped so
    * the log-posterior stays finite (the attacker's standard smoothing).
    */
  private val Floor = 1e-6

  private def pos(x: Double): Double = math.max(x, Floor)

  /** Predicted sensitive value for one quasi-identifier assignment. */
  def predict(qi: Map[String, Int]): Int = {
    val n = pos(size)
    saValues.maxBy { y =>
      val cy = pos(classCounts(y))
      var logp = math.log(cy / n) // log P(y)
      for ((d, v) <- qi) {
        val joint = pos(jointCounts.getOrElse((d, v, y), 0.0))
        // P(v|y) / P(v) with P(v) = Σ_y' c_{v,y'} / size
        val marg = pos(saValues.iterator.map(yy => jointCounts.getOrElse((d, v, yy), 0.0)).sum)
        logp += math.log(joint / cy) - math.log(marg / n)
      }
      logp
    }
  }
}

/** The learning-based attack of §6.6: train an NBC purely from aggregation
  * queries answered by the system under test, then measure how well it
  * recovers each individual's sensitive attribute from quasi-identifiers.
  */
final class NbcAttack(val saDim: DimSpec, val qiDims: Seq[DimSpec]) {

  /** `nQueries = 1 + ‖d_SA‖ + ‖d_SA‖·Σ‖d_QI‖` (§6.6). */
  def nQueries: Long =
    1L + saDim.size + saDim.size.toLong * qiDims.map(_.size.toLong).sum

  /** All training queries, in issue order: the size query, one per class,
    * then one per (QI dim, QI value, class).
    */
  def trainingQueries(agg: Agg): Seq[RangeQuery] = {
    val full = RangeQuery(agg, Seq(DimRange(saDim.name, saDim.lo, saDim.hi)))
    val classQs = (saDim.lo to saDim.hi).map(y =>
      RangeQuery(agg, Seq(DimRange(saDim.name, y, y))))
    val jointQs = for {
      d <- qiDims
      v <- d.lo to d.hi
      y <- saDim.lo to saDim.hi
    } yield RangeQuery(agg, Seq(DimRange(d.name, v, v), DimRange(saDim.name, y, y)))
    (full +: classQs) ++ jointQs
  }

  /** Train the NBC by issuing every training query through `answer` (the
    * system under attack — private pipeline or exact answers).
    */
  def train(answer: RangeQuery => Double, agg: Agg): NbcModel = {
    val qs = trainingQueries(agg)
    require(qs.size == nQueries, s"query plan ${qs.size} != formula $nQueries")
    val it = qs.iterator
    val size = answer(it.next())
    val classCounts = (saDim.lo to saDim.hi).map(y => y -> answer(it.next())).toMap
    val joint = (for {
      d <- qiDims
      v <- d.lo to d.hi
      y <- saDim.lo to saDim.hi
    } yield (d.name, v, y) -> answer(it.next())).toMap
    NbcModel((saDim.lo to saDim.hi).toSeq, size, classCounts, joint)
  }

  /** Attack accuracy over ground-truth individuals: fraction (weighted by
    * `weight` = how many individuals share the QI/SA combination) whose
    * sensitive value the model predicts exactly.
    */
  def accuracy(model: NbcModel, truth: Seq[(Map[String, Int], Int, Long)]): Double = {
    require(truth.nonEmpty)
    val cache = scala.collection.mutable.Map.empty[Map[String, Int], Int]
    var correct = 0L
    var total = 0L
    for ((qi, sa, w) <- truth) {
      val pred = cache.getOrElseUpdate(qi, model.predict(qi))
      if (pred == sa) correct += w
      total += w
    }
    correct.toDouble / total
  }
}
