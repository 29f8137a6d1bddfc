package repro.baseline

import scala.util.Random

import repro.core.{Agg, RangeKernel, RangeQuery}
import repro.smc.SecretSharing

/** The paper's motivating simulation (Figure 1): evaluating a federated
  * range query in SMC by (i) secret-sharing every row and evaluating
  * collectively, vs (ii) evaluating locally and secret-sharing only the
  * per-provider results.
  *
  * Row sharing must run the range predicate *on shares*, which in real SMC
  * costs a secure comparison per (row, dimension) — a ladder of O(bit-width)
  * share operations. We execute that ladder honestly over additive shares
  * (no artificial sleeps), so the cost grows linearly with rows while
  * result sharing stays constant, which is exactly the shape Figure 1
  * reports.
  */
object RowSharingSmc {

  /** One provider's local rows: integer dimension values + measure. */
  final case class LocalRows(dims: Array[String], values: Array[Array[Int]], measures: Array[Long])

  private val Bits = 32

  /** Emulated secure `x ∈ [lb, ub]` over an additively shared 32-bit value:
    * runs the bit-decomposition ladder a DGK-style comparison would,
    * producing the plaintext predicate (the work, not the secrecy, is what
    * the baseline measures).
    */
  private def secureInRange(shares: Array[Long], lb: Int, ub: Int): Boolean = {
    // each party "processes" its share bit by bit — O(parties × bits) ops
    var mix = 0L
    var b = 0
    while (b < Bits) {
      var p = 0
      while (p < shares.length) {
        mix += (shares(p) >>> b) & 1L
        p += 1
      }
      b += 1
    }
    val x = SecretSharing.reconstruct(shares.toIndexedSeq)
    // mix is folded in and out so the ladder cannot be optimized away
    (x + mix - mix) >= lb && x <= ub
  }

  /** (i) Row sharing: every row of every provider is secret-shared among
    * `nParties`, the predicate is evaluated with secure comparisons, and
    * the aggregate is summed share-wise. Returns (answer, ms).
    */
  def evaluateRowSharing(parties: Seq[LocalRows], q: RangeQuery, nParties: Int,
                         rng: Random): (Double, Double) = {
    val t0 = System.nanoTime()
    var totalShares = new Array[Long](nParties)
    for (rows <- parties) {
      val dimIdx = q.ranges.map(r => rows.dims.indexOf(r.dim))
      var i = 0
      while (i < rows.measures.length) {
        // share every queried dimension value of the row
        val dimShares = dimIdx.map(d => SecretSharing.share(rows.values(d)(i).toLong, nParties, rng))
        val inRange = dimShares.zip(q.ranges).forall { case (sh, r) => secureInRange(sh, r.lb, r.ub) }
        if (inRange) {
          val contrib = q.agg match {
            case Agg.Count      => 1L
            case Agg.SumMeasure => rows.measures(i)
          }
          val cs = SecretSharing.share(contrib, nParties, rng)
          var p = 0
          while (p < nParties) { totalShares(p) += cs(p); p += 1 }
        }
        i += 1
      }
    }
    val answer = SecretSharing.reconstruct(totalShares.toIndexedSeq).toDouble
    (answer, (System.nanoTime() - t0) / 1e6)
  }

  /** (ii) Result sharing: each provider evaluates locally in the clear,
    * with the scans' [[RangeKernel]], and only its scalar result enters SMC.
    * Returns (answer, ms).
    */
  def evaluateResultSharing(parties: Seq[LocalRows], q: RangeQuery, nParties: Int,
                            rng: Random): (Double, Double) = {
    val t0 = System.nanoTime()
    val locals = parties.map { rows =>
      new RangeKernel(q, rows.dims.indexOf(_)).span(rows.values, rows.measures, 0, rows.measures.length).toDouble
    }
    val answer = SecretSharing.secureSum(locals, rng)
    (answer, (System.nanoTime() - t0) / 1e6)
  }
}
