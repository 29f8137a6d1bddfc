package repro.dp

import org.scalatest.funsuite.AnyFunSuite

import Composition.Budget

/** The per-query budgets of §6.6. */
class CompositionSpec extends AnyFunSuite {

  test("sequential per-query budget splits evenly") {
    val b = Composition.sequentialPerQuery(10.0, 1e-3, 100)
    assert(math.abs(b.eps - 0.1) < 1e-12 && math.abs(b.delta - 1e-5) < 1e-15)
  }

  test("advanced composition formula matches §6.6") {
    val xi = 10.0; val psi = 1e-6; val n = 3901L
    val b = Composition.advancedPerQuery(xi, psi, n)
    val delta = psi / n
    val expected = xi / (2.0 * math.sqrt(2.0 * n * math.log(1.0 / delta)))
    assert(math.abs(b.eps - expected) < 1e-12 && b.delta == delta)
  }

  test("advanced composition allows a larger per-query epsilon than sequential for large n") {
    for (n <- Seq(1000L, 3901L, 100000L)) {
      val seq = Composition.sequentialPerQuery(1.0, 1e-6, n)
      val adv = Composition.advancedPerQuery(1.0, 1e-6, n)
      assert(adv.eps > seq.eps, s"n=$n: ${adv.eps} <= ${seq.eps}")
    }
  }

  test("advanced composition is not worthwhile for small query counts") {
    // the √(n·ln(1/δ)) constant dominates below a crossover point
    val seq = Composition.sequentialPerQuery(1.0, 1e-6, 100)
    val adv = Composition.advancedPerQuery(1.0, 1e-6, 100)
    assert(adv.eps < seq.eps)
  }

  test("coalition per-query budget is the full budget") {
    assert(Composition.coalitionPerQuery(50.0, 1e-6) == Budget(50.0, 1e-6))
  }

  test("n sequential queries at the per-query budget exactly exhaust the total") {
    val n = 37
    val per = Composition.sequentialPerQuery(2.0, 1e-3, n)
    assert(math.abs(n * per.eps - 2.0) < 1e-9 && math.abs(n * per.delta - 1e-3) < 1e-12)
  }

  test("negative budgets are rejected") {
    intercept[IllegalArgumentException](Budget(-0.1, 0))
    intercept[IllegalArgumentException](Budget(0.1, -1e-6))
  }
}
