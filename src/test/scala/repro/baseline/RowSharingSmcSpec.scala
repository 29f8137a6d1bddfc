package repro.baseline

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

import repro.core.{Agg, DimRange, RangeQuery}
import repro.smc.SecretSharing

/** Figure-1 baseline: both SMC evaluation strategies are correct, and row
  * sharing costs dramatically more than result sharing.
  */
class RowSharingSmcSpec extends AnyFunSuite {

  private def makeParties(rowsPerParty: Int, seed: Long): Seq[RowSharingSmc.LocalRows] = {
    val rng = new Random(seed)
    (0 until 4).map { _ =>
      RowSharingSmc.LocalRows(
        Array("a", "b"),
        Array(Array.fill(rowsPerParty)(rng.nextInt(100)),
          Array.fill(rowsPerParty)(rng.nextInt(50))),
        Array.fill(rowsPerParty)(1L + rng.nextInt(5)))
    }
  }

  private def plaintext(parties: Seq[RowSharingSmc.LocalRows], q: RangeQuery): Double =
    parties.map { p =>
      (0 until p.measures.length).map { i =>
        val ok = q.ranges.forall { r =>
          val v = p.values(p.dims.indexOf(r.dim))(i)
          v >= r.lb && v <= r.ub
        }
        if (!ok) 0.0
        else q.agg match {
          case Agg.Count      => 1.0
          case Agg.SumMeasure => p.measures(i).toDouble
        }
      }.sum
    }.sum

  private val q = RangeQuery(Agg.Count, Seq(DimRange("a", 20, 70), DimRange("b", 5, 30)))
  private val qSum = RangeQuery(Agg.SumMeasure, Seq(DimRange("a", 10, 90)))

  test("row-sharing SMC evaluation equals the plaintext answer (COUNT)") {
    val parties = makeParties(500, 1)
    val (got, _) = RowSharingSmc.evaluateRowSharing(parties, q, 4, new Random(2))
    assert(got == plaintext(parties, q))
  }

  test("row-sharing SMC evaluation equals the plaintext answer (SUM)") {
    val parties = makeParties(500, 3)
    val (got, _) = RowSharingSmc.evaluateRowSharing(parties, qSum, 4, new Random(4))
    assert(got == plaintext(parties, qSum))
  }

  test("result-sharing SMC evaluation equals the plaintext answer") {
    val parties = makeParties(500, 5)
    for (query <- Seq(q, qSum)) {
      val (got, _) = RowSharingSmc.evaluateResultSharing(parties, query, 4, new Random(6))
      assert(got == plaintext(parties, query), s"query $query")
    }
  }

  test("the two SMC strategies agree with each other") {
    val parties = makeParties(300, 7)
    for (query <- Seq(q, qSum)) {
      val (a, _) = RowSharingSmc.evaluateRowSharing(parties, query, 4, new Random(8))
      val (b, _) = RowSharingSmc.evaluateResultSharing(parties, query, 4, new Random(9))
      assert(a == b, s"query $query")
    }
  }

  test("row sharing is much slower than sharing only results") {
    val parties = makeParties(20000, 10)
    val rng = new Random(11)
    val (_, tRow) = RowSharingSmc.evaluateRowSharing(parties, q, 4, rng)
    val locals = parties.map(p => plaintext(Seq(p), q))
    val t0 = System.nanoTime()
    SecretSharing.secureSum(locals, rng)
    val tRes = (System.nanoTime() - t0) / 1e6
    assert(tRow > 10 * tRes, s"rowMs=$tRow resMs=$tRes")
  }

  test("row-sharing cost grows with the table size") {
    val rng = new Random(12)
    def cost(n: Int): Double = {
      // median of 3 to de-noise JIT effects
      val ts = (1 to 3).map(_ =>
        RowSharingSmc.evaluateRowSharing(makeParties(n, 13), q, 4, rng)._2)
      ts.sorted.apply(1)
    }
    val small = cost(2000)
    val large = cost(40000)
    assert(large > 4 * small, s"small=$small large=$large")
  }

  test("empty parties evaluate to zero") {
    val parties = makeParties(0, 14)
    assert(RowSharingSmc.evaluateRowSharing(parties, q, 4, new Random(15))._1 == 0.0)
    assert(RowSharingSmc.evaluateResultSharing(parties, q, 4, new Random(16))._1 == 0.0)
  }
}
