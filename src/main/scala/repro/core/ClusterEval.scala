package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Physical evaluation of range queries against the clustered, federated
  * tensor. The protocol only ever needs two primitives:
  *
  *  - `perCluster`: `Q(C)` for a *sampled* subset of clusters (the paper's
  *    approximation scan — must touch only those clusters), and
  *  - `exactTotal`: the plain-text full-scan answer (the speed-up baseline
  *    and the error ground truth).
  *
  * Two implementations exist: [[SparkClusterEval]] runs real DataFrame jobs
  * (partition pruning gives the I/O saving); [[InMemoryClusterEval]] replays
  * the same semantics over driver-side arrays, for statistical tests and the
  * attack bench that issue thousands of protocol runs (DESIGN.md §3).
  */
trait ClusterEval {
  /** `Q(C)` per sampled `(provider, cluster)` key, for every key in
    * `sampled` — clusters with no matching rows report 0.
    */
  def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double]

  /** Exact plain-text answer over the full federation. */
  def exactTotal(q: RangeQuery): Double
}

/** DataFrame-backed evaluation. `df` must carry `provider_id`, `cluster_id`,
  * the dimension columns and `measure`; when it is read from parquet
  * partitioned by `(provider_id, cluster_id)`, the `perCluster` filter is a
  * partition filter and only the sampled files are scanned — the Spark
  * analog of page-level cluster sampling.
  */
final class SparkClusterEval(val df: DataFrame) extends ClusterEval {
  import Clustering.{ClusterCol, ProviderCol}

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    if (sampled.isEmpty || sampled.forall(_._2.isEmpty)) return Map.empty
    val keyFilter = sampled.toSeq
      .filter(_._2.nonEmpty)
      .map { case (p, cs) =>
        col(ProviderCol) === p && col(ClusterCol).isin(cs.map(Integer.valueOf): _*)
      }
      .reduce(_ || _)
    val got = df
      .filter(keyFilter && q.predicate)
      .groupBy(col(ProviderCol), col(ClusterCol))
      .agg(q.aggregate().as("answer"))
      .collect()
      .map(r => (r.getInt(0), r.getInt(1)) -> r.getDouble(2))
      .toMap
    val all = for ((p, cs) <- sampled.toSeq; c <- cs) yield (p, c)
    all.map(k => k -> got.getOrElse(k, 0.0)).toMap
  }

  override def exactTotal(q: RangeQuery): Double =
    df.filter(q.predicate).agg(q.aggregate().as("answer")).head.getDouble(0)
}

/** Driver-side replay of the same semantics over collected rows.
  * Build it once from the clustered federated DataFrame; every subsequent
  * query is a pure in-memory scan (no Spark job).
  */
final class InMemoryClusterEval private (
    providers: Array[Int], clusters: Array[Int],
    dimCols: Array[String], dimValues: Array[Array[Int]], measures: Array[Long])
    extends ClusterEval {

  private val dimIndex: Map[String, Int] = dimCols.zipWithIndex.toMap

  /** Hoisted per-query predicate state: parallel arrays of (dim column,
    * lb, ub) so the row loop is branch-cheap (the attack bench replays tens
    * of thousands of protocol runs through this path).
    */
  private final class Pred(q: RangeQuery) {
    val cols: Array[Array[Int]] = q.ranges.map(r => dimValues(dimIndex(r.dim))).toArray
    val lbs: Array[Int] = q.ranges.map(_.lb).toArray
    val ubs: Array[Int] = q.ranges.map(_.ub).toArray
    val isCount: Boolean = q.agg == Agg.Count
    def matches(row: Int): Boolean = {
      var d = 0
      while (d < cols.length) {
        val v = cols(d)(row)
        if (v < lbs(d) || v > ubs(d)) return false
        d += 1
      }
      true
    }
    def contribution(row: Int): Double =
      if (isCount) 1.0 else measures(row).toDouble
  }

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val pred = new Pred(q)
    val maxP = if (providers.isEmpty) 0 else providers.max + 1
    val wanted = Array.fill[java.util.BitSet](maxP)(null)
    for ((p, cs) <- sampled if p >= 0 && p < maxP) {
      val bs = new java.util.BitSet()
      cs.foreach(bs.set)
      wanted(p) = bs
    }
    val acc = scala.collection.mutable.Map.empty[(Int, Int), Double]
    for ((p, cs) <- sampled.toSeq; c <- cs) acc((p, c)) = 0.0
    var i = 0
    while (i < providers.length) {
      val p = providers(i)
      val bs = if (p < maxP) wanted(p) else null
      if (bs != null && bs.get(clusters(i)) && pred.matches(i)) {
        val key = (p, clusters(i))
        acc(key) = acc(key) + pred.contribution(i)
      }
      i += 1
    }
    acc.toMap
  }

  override def exactTotal(q: RangeQuery): Double = {
    val pred = new Pred(q)
    var s = 0.0; var i = 0
    while (i < providers.length) {
      if (pred.matches(i)) s += pred.contribution(i)
      i += 1
    }
    s
  }
}

object InMemoryClusterEval {
  /** Collect a clustered federated DataFrame (provider_id, cluster_id,
    * dims..., measure) into driver arrays.
    */
  def fromDataFrame(df: DataFrame, dims: Seq[String]): InMemoryClusterEval = {
    val rows = df
      .select(
        (Seq(col(Clustering.ProviderCol).cast("int"), col(Clustering.ClusterCol).cast("int")) ++
          dims.map(d => col(d).cast("int")) :+ col(Tensor.MeasureCol).cast("long")): _*)
      .collect()
    val n = rows.length
    val providers = new Array[Int](n)
    val clusters  = new Array[Int](n)
    val dimValues = Array.fill(dims.size)(new Array[Int](n))
    val measures  = new Array[Long](n)
    var i = 0
    while (i < n) {
      val r = rows(i)
      providers(i) = r.getInt(0)
      clusters(i)  = r.getInt(1)
      var d = 0
      while (d < dims.size) { dimValues(d)(i) = r.getInt(2 + d); d += 1 }
      measures(i) = r.getLong(2 + dims.size)
      i += 1
    }
    new InMemoryClusterEval(providers, clusters, dims.toArray, dimValues, measures)
  }
}
