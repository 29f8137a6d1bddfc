package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Per-cluster, per-dimension metadata entry (Algorithm 1, `datas_meta`).
  *
  * `values` holds the distinct values of the dimension in this cluster in
  * ascending order; `rGe(i)` is the stored suffix proportion
  * `R^{d≥}(values(i)) = |rows with d ≥ values(i)| / S`.
  */
final case class DimMeta(values: Array[Int], rGe: Array[Double]) {
  require(values.length == rGe.length && values.nonEmpty)

  /** Minimum / maximum value of the dimension in the cluster
    * (Algorithm 1 lines 10–11, `Clusters_metas`).
    */
  def vMin: Int = values.head
  def vMax: Int = values.last

  /** `R^{d≥}(x)` for an arbitrary `x`: the suffix proportion is a
    * non-increasing step function whose value at `x` equals the stored value
    * at the smallest distinct value ≥ `x` (0 above the maximum).
    */
  def rGeAt(x: Int): Double = {
    var lo = 0; var hi = values.length // first index with values(idx) >= x
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (values(mid) >= x) hi = mid else lo = mid + 1
    }
    if (lo == values.length) 0.0 else rGe(lo)
  }

  /** Sub-proportion `R^d` of the cluster's rows with value in `[lb, ub]`
    * (paper §5.2: `R^d = R^{d≥}(lb) − R^{d≥}(ub⁺)` on a discrete domain).
    */
  def rRange(lb: Int, ub: Int): Double =
    math.max(0.0, rGeAt(lb) - rGeAt(ub + 1))

  /** Whether `[vMin, vMax] ∩ [lb, ub] ≠ ∅` (Eq 2 covering test). */
  def intersects(lb: Int, ub: Int): Boolean = vMin <= ub && vMax >= lb
}

/** Metadata of one cluster: row count plus per-dimension [[DimMeta]]. */
final case class ClusterMeta(clusterId: Int, nRows: Long, dims: Map[String, DimMeta]) {

  /** Eq 2: the cluster covers `q` iff its [min,max] box intersects every
    * query range.
    */
  def covers(q: RangeQuery): Boolean =
    q.ranges.forall(r => dims(r.dim).intersects(r.lb, r.ub))

  /** Eq 1 numerator: `R = ∏_{d∈D^Q} R^d` under the dimension-independence
    * assumption.
    */
  def proportion(q: RangeQuery): Double =
    q.ranges.map(r => dims(r.dim).rRange(r.lb, r.ub)).product
}

/** All of one data provider's offline metadata (Algorithm 1 output). */
final case class ProviderMetadata(providerId: Int, S: Int, dimNames: Seq[String],
                                  clusters: Vector[ClusterMeta]) {

  /** Clusters covering `q` — the set `C^Q` of Eq 2. */
  def coveringClusters(q: RangeQuery): Vector[ClusterMeta] =
    clusters.filter(_.covers(q))

  /** Approximated proportions `R̂` for a set of clusters and a query. */
  def proportions(cs: Seq[ClusterMeta], q: RangeQuery): Vector[Double] =
    cs.iterator.map(_.proportion(q)).toVector

  /** Eq 1: normalized sampling probabilities `p_j = R_j / Σ R_i`.
    * Falls back to uniform when every approximated proportion is zero
    * (possible when the min/max boxes intersect the ranges but no distinct
    * value actually falls inside them).
    */
  def samplingProbabilities(rs: Seq[Double]): Vector[Double] = {
    val total = rs.sum
    if (total <= 0.0) Vector.fill(rs.size)(1.0 / math.max(1, rs.size))
    else rs.iterator.map(_ / total).toVector
  }
}

/** Offline metadata construction — Algorithm 1 as a Spark aggregation.
  *
  * One `groupBy(cluster, value).count` pass per dimension produces the
  * distinct-value histograms; a cluster's row count is the sum of its first
  * dimension's histogram. Suffix sums (the stored `R^{d≥}` proportions)
  * are finished on the driver, where the result lives anyway: the whole
  * point of the paper's metadata is that it is small enough to consult
  * without touching the data (11 MB for a 120 GB table in §6.1).
  */
object Metadata {
  def build(clustered: DataFrame, dims: Seq[String], S: Int, providerId: Int): ProviderMetadata = {
    require(dims.nonEmpty, "metadata needs at least one dimension")
    // dim -> clusterId -> ascending (value, rowCount) histogram
    val hist: Map[String, Map[Int, Vector[(Int, Long)]]] = dims.map { d =>
      d -> clustered
        .groupBy(col(Clustering.ClusterCol), col(d).cast("int").as("v"))
        .agg(count(lit(1)).as("n"))
        .collect()
        .groupBy(_.getInt(0))
        .map { case (cid, rs) => cid -> rs.map(r => (r.getInt(1), r.getLong(2))).sortBy(_._1).toVector }
    }.toMap

    // every row has a value in each dimension, so the first dimension's
    // histogram names every cluster and sums to its row count
    val metas = hist(dims.head).toVector.sortBy(_._1).map { case (cid, first) =>
      val dimMetas = dims.map { d =>
        val h = hist(d)(cid)
        val values = h.map(_._1).toArray
        // suffix sums: R^{d>=}(v_i) = (sum of counts at indices >= i) / S
        val rGe = new Array[Double](values.length)
        var acc = 0L
        var i = values.length - 1
        while (i >= 0) { acc += h(i)._2; rGe(i) = acc.toDouble / S; i -= 1 }
        d -> DimMeta(values, rGe)
      }.toMap
      ClusterMeta(cid, first.map(_._2).sum, dimMetas)
    }
    ProviderMetadata(providerId, S, dims, metas)
  }
}
