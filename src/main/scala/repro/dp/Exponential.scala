package repro.dp

import scala.util.Random

/** Exponential mechanism (paper Def 3.5) in the form Algorithm 2 uses it:
  * `s` clusters drawn without replacement.
  */
object Exponential {

  /** Algorithm 2 (`EM_sampling`): pick `s` distinct indices, each draw an
    * ε-DP exponential-mechanism draw at `ε^s = totalEps / s` that picks `i`
    * with probability proportional to `exp(ε^s·L(i) / (2·Δ_L))` among the
    * indices not yet picked. The score of a cluster is its sampling
    * probability `p_i` (Eq 1), with sensitivity `Δp = 1/(N^min(N^min+1))`
    * (Theorem 5.2).
    *
    * The `s` draws are made at once: the `s` largest of
    * `ε^s·L(i)/(2·Δ_L) + G_i`, with `G_i` i.i.d. standard Gumbel, are
    * distributed exactly as `s` successive draws at `ε^s` each (Durfee &
    * Rogers, NeurIPS 2019, "Practical Differentially Private Top-k
    * Selection with Pay-what-you-get Composition"), so the per-draw budget
    * and the total `ε^S` are those of the `s` draws. The result lists the
    * indices in draw order. `totalEps = ∞` keeps the top `s` scores, ties
    * going to the lower index, and draws no random number.
    */
  def sampleWithoutReplacement(scores: IndexedSeq[Double], s: Int, totalEps: Double,
                               sensitivity: Double, rng: Random): Vector[Int] = {
    val k = math.min(math.max(s, 0), scores.length)
    if (k == 0) return Vector.empty
    val scale = totalEps / k / (2.0 * sensitivity)
    val keys =
      if (totalEps.isPosInfinity) scores
      else scores.map(x => scale * x + gumbel(rng))
    // a stable sort: equal keys keep index order
    keys.indices.sortBy(keys)(Ordering.Double.TotalOrdering.reverse).take(k).toVector
  }

  /** One standard Gumbel draw, `−ln(−ln u)` with `u` uniform in (0,1). */
  private def gumbel(rng: Random): Double = {
    var u = rng.nextDouble()
    while (u == 0.0) u = rng.nextDouble()
    -math.log(-math.log(u))
  }
}
