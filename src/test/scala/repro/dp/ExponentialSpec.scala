package repro.dp

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Algorithm 2's exponential-mechanism sampling without replacement; `s = 1`
  * is a single EM draw.
  */
class ExponentialSpec extends AnyFunSuite {

  private def draw(scores: IndexedSeq[Double], eps: Double, sens: Double, rng: Random): Int =
    Exponential.sampleWithoutReplacement(scores, 1, eps, sens, rng).head

  test("infinite epsilon selects the argmax") {
    val rng = new Random(1)
    val inf = Double.PositiveInfinity
    assert((1 to 50).forall(_ => draw(IndexedSeq(0.1, 0.9, 0.3), inf, 1.0, rng) == 1))
    assert(draw(IndexedSeq(0.2, 0.9, 0.9), inf, 1.0, rng) == 1)
  }

  test("empirical selection frequencies match the softmax distribution") {
    val scores = IndexedSeq(0.0, 1.0, 2.0)
    val eps = 1.0; val sens = 1.0
    val weights = scores.map(s => math.exp(eps * s / (2 * sens)))
    val expected = weights.map(_ / weights.sum)
    val rng = new Random(2)
    val n = 60000
    val counts = Array.fill(scores.size)(0)
    for (_ <- 1 to n) counts(draw(scores, eps, sens, rng)) += 1
    for (i <- scores.indices) {
      val freq = counts(i).toDouble / n
      assert(math.abs(freq - expected(i)) < 0.01, s"index $i: $freq vs ${expected(i)}")
    }
  }

  test("ordered pairs follow the Plackett-Luce probabilities of two successive draws") {
    // s = 2 draws at eps/2 each: P(i then j) = w_i/W · w_j/(W − w_i),
    // w = exp((eps/2)·score/(2Δ)); chi-square over the 12 ordered pairs
    val scores = IndexedSeq(0.1, 0.2, 0.3, 0.4)
    val eps = 2.0; val sens = 0.1
    val w = scores.map(x => math.exp(eps / 2 * x / (2 * sens)))
    val total = w.sum
    val rng = new Random(21)
    val n = 60000
    val counts = scala.collection.mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
    for (_ <- 1 to n) {
      val Vector(i, j) = Exponential.sampleWithoutReplacement(scores, 2, eps, sens, rng)
      counts((i, j)) += 1
    }
    val pairs = for (i <- scores.indices; j <- scores.indices if i != j) yield (i, j)
    val chi2 = pairs.map { case (i, j) =>
      val expected = n * w(i) / total * w(j) / (total - w(i))
      math.pow(counts((i, j)) - expected, 2) / expected
    }.sum
    assert(counts.keySet == pairs.toSet)
    assert(chi2 < 31.26, s"chi-square $chi2 over 11 df; counts $counts") // p = 0.001
  }

  test("higher scores are selected more often") {
    val scores = IndexedSeq(0.01, 0.3, 0.69)
    val rng = new Random(3)
    val counts = Array.fill(3)(0)
    for (_ <- 1 to 20000) counts(draw(scores, 2.0, 0.5, rng)) += 1
    assert(counts(2) > counts(1) && counts(1) > counts(0), counts.toSeq)
  }

  test("tiny epsilon approaches uniform selection") {
    val scores = IndexedSeq(0.0, 10.0)
    val rng = new Random(4)
    val counts = Array.fill(2)(0)
    for (_ <- 1 to 40000) counts(draw(scores, 1e-6, 1.0, rng)) += 1
    assert(math.abs(counts(0).toDouble / 40000 - 0.5) < 0.02)
  }

  test("numerically stable under extreme score/sensitivity ratios") {
    val scores = IndexedSeq(0.1, 0.9)
    val rng = new Random(5)
    assert(draw(scores, 1000.0, 1e-9, rng) == 1) // exponents ~1e11
  }

  test("sampling without replacement returns distinct indices") {
    val scores = IndexedSeq.tabulate(20)(i => (i + 1) / 20.0)
    val rng = new Random(6)
    for (_ <- 1 to 50) {
      val picked = Exponential.sampleWithoutReplacement(scores, 8, 1.0, 0.01, rng)
      assert(picked.size == 8 && picked.distinct.size == 8)
      assert(picked.forall(i => i >= 0 && i < 20))
    }
  }

  test("sample size is clamped to the candidate count") {
    val scores = IndexedSeq(0.3, 0.7)
    val rng = new Random(7)
    assert(Exponential.sampleWithoutReplacement(scores, 10, 1.0, 0.1, rng).size == 2)
    assert(Exponential.sampleWithoutReplacement(scores, 0, 1.0, 0.1, rng).isEmpty)
    assert(Exponential.sampleWithoutReplacement(scores, -3, 1.0, 0.1, rng).isEmpty)
    assert(Exponential.sampleWithoutReplacement(IndexedSeq.empty, 3, 1.0, 0.1, rng).isEmpty)
  }

  test("infinite total budget picks the top-s scores") {
    val scores = IndexedSeq(0.1, 0.8, 0.4, 0.9, 0.2, 0.8)
    val rng = new Random(8)
    val picked = Exponential.sampleWithoutReplacement(
      scores, 3, Double.PositiveInfinity, 0.1, rng)
    assert(picked == Vector(3, 1, 5)) // descending, ties to the lower index
  }

  test("biased-but-random: high-probability clusters appear more often across runs") {
    val scores = IndexedSeq(0.05, 0.05, 0.05, 0.85)
    val rng = new Random(9)
    var top = 0
    val runs = 5000
    for (_ <- 1 to runs)
      if (draw(scores, 2.0, 0.01, rng) == 3) top += 1
    assert(top.toDouble / runs > 0.5)
  }
}
