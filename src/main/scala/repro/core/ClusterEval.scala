package repro.core

import scala.collection.mutable

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel

/** Physical evaluation of range queries against the clustered, federated
  * tensor. The protocol only ever needs two primitives:
  *
  *  - `perCluster`: `Q(C)` for a *sampled* subset of clusters (the paper's
  *    approximation scan — must touch only those clusters), and
  *  - `exactTotal`: the plain-text full-scan answer (the speed-up baseline
  *    and the error ground truth).
  *
  * Three implementations exist (DESIGN.md §3). [[SparkClusterEval]] runs one
  * DataFrame stage per query, and over the parquet store page skipping
  * gives the I/O saving. [[BlockClusterEval]] runs one Spark job over the
  * cached store's per-cluster blocks, on only the partitions holding sampled
  * clusters. [[InMemoryClusterEval]] replays the same semantics over arrays
  * collected into the JVM, for statistical tests and the attack bench, which
  * make thousands of protocol runs, and as the independent reference the
  * Spark evaluators are checked against.
  */
trait ClusterEval {
  /** `Q(C)` per sampled `(provider, cluster)` key, for every key in
    * `sampled` — clusters with no matching rows report 0.
    */
  def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double]

  /** Exact plain-text answer over the full federation. */
  def exactTotal(q: RangeQuery): Double
}

object ClusterEval {
  /** Every requested `(provider, cluster)` key with the sum of its `pieces`
    * (0 when it has none). A cluster may arrive in several pieces, one per
    * partition holding some of its rows; the sum is exact in `Long` and
    * only then converted.
    */
  private[core] def sumPerKey(keys: Seq[(Int, Int)],
                              pieces: IterableOnce[((Int, Int), Long)]): Map[(Int, Int), Double] = {
    val acc = mutable.Map.empty[(Int, Int), Long]
    keys.foreach(acc(_) = 0L)
    pieces.iterator.foreach { case (k, v) => acc(k) += v }
    acc.iterator.map { case (k, v) => k -> v.toDouble }.toMap
  }

  private[core] def keysOf(sampled: Map[Int, Seq[Int]]): Seq[(Int, Int)] =
    for ((p, cs) <- sampled.toSeq; c <- cs) yield (p, c)

  /** The columns the block and in-memory evaluators load from a clustered
    * federated DataFrame, in this order: provider and cluster as `Int`,
    * each of `dims` as `Int`, then the measure as `Long`.
    */
  private[core] def loadColumns(df: DataFrame, dims: Seq[String]): DataFrame =
    df.select(
      (Seq(col(Clustering.ProviderCol).cast("int"), col(Clustering.ClusterCol).cast("int")) ++
        dims.map(d => col(d).cast("int")) :+ col(Tensor.MeasureCol).cast("long")): _*)
}

/** DataFrame-backed evaluation, one stage per query. `df` must carry
  * `provider_id`, `cluster_id`, the dimension columns and `measure`; when it
  * is read from `Setup.build`'s parquet store (one file per provider, one
  * page per cluster), the `perCluster` filter is pushed into the parquet
  * reader, and the pages of unsampled clusters are skipped by their
  * column-index statistics — page-level cluster sampling: the scan reads
  * only the sampled clusters' rows, however many are sampled. Neither
  * primitive shuffles: each task sums its partition's contributions (per
  * sampled cluster for `perCluster`, in total for `exactTotal`), so the
  * driver receives at most one sum per key and partition, however many
  * rows match.
  */
final class SparkClusterEval(val df: DataFrame) extends ClusterEval {
  import Clustering.{ClusterCol, ProviderCol}

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val keys = ClusterEval.keysOf(sampled)
    if (keys.isEmpty) return Map.empty
    // Spark hands parquet a longer `isin` list as one IN set, which the
    // column index tests only by its [min, max], so a provider's list goes
    // in OR-ed pieces that each stay at or below the threshold
    val inMax = math.max(1,
      df.sparkSession.conf.get("spark.sql.parquet.pushdown.inFilterThreshold", "10").toInt)
    val keyFilter = sampled.toSeq
      .filter(_._2.nonEmpty)
      .map { case (p, cs) =>
        col(ProviderCol) === p && cs.grouped(inMax)
          .map(g => col(ClusterCol).isin(g.map(Integer.valueOf): _*)).reduce(_ || _)
      }
      .reduce(_ || _)
    val pieces = internalRows(df
      .filter(keyFilter && q.predicate)
      .select(col(ProviderCol), col(ClusterCol), q.contribution))
      .mapPartitions { rows =>
        val acc = mutable.Map.empty[(Int, Int), Long].withDefaultValue(0L)
        rows.foreach { r => acc((r.getInt(0), r.getInt(1))) += r.getLong(2) }
        acc.iterator
      }
      .collect()
    ClusterEval.sumPerKey(keys, pieces)
  }

  override def exactTotal(q: RangeQuery): Double =
    internalRows(df.filter(q.predicate).select(q.contribution))
      .mapPartitions(rows => Iterator.single(rows.map(_.getLong(0)).sum))
      .collect().sum.toDouble

  /** The rows of `plan` as Spark's internal rows: `Dataset.rdd` would plan
    * the query a second time and convert each row to a `Row`, about a sixth
    * of a `perCluster` call at 100k rows. The tasks read each row before
    * the next one replaces it.
    */
  private def internalRows(plan: DataFrame): RDD[InternalRow] = plan.queryExecution.toRdd
}

/** Evaluation over per-cluster column blocks kept in Spark's memory: each
  * `(provider, cluster)` is one [[BlockClusterEval.Block]] (an `Int` column
  * per dimension and the measures), and an index held by the evaluator
  * maps each cluster to the partitions holding its rows. `perCluster` is one
  * job over only the partitions of the sampled clusters, and runs its kernel
  * only on their blocks: the cached analog of reading only the sampled pages.
  *
  * The evaluator alone holds the blocks, so Spark's ContextCleaner drops
  * them once the evaluator is unreachable.
  */
final class BlockClusterEval private (blocks: RDD[BlockClusterEval.Block],
                                      index: Map[(Int, Int), Array[Int]],
                                      dimIndex: Map[String, Int]) extends ClusterEval {
  import BlockClusterEval.{Block, Kernel}

  /** Partitions holding any block: the cached store's shuffle may leave
    * many partitions empty, and the exact scan skips them.
    */
  private val filled: Seq[Int] = index.valuesIterator.flatten.toSeq.distinct.sorted

  private def kernel(q: RangeQuery): Kernel = Kernel(
    q.ranges.map(r => dimIndex(r.dim)).toArray, q.ranges.map(_.lb).toArray,
    q.ranges.map(_.ub).toArray, q.agg == Agg.Count)

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val keys = ClusterEval.keysOf(sampled)
    val parts = keys.flatMap(index.getOrElse(_, Array.emptyIntArray)).distinct.sorted
    if (parts.isEmpty) return ClusterEval.sumPerKey(keys, Nil)
    // the task closure captures only these two values, not the evaluator
    val k = kernel(q)
    val want = keys.toSet
    val got = blocks.sparkContext.runJob(blocks, (it: Iterator[Block]) =>
      it.filter(b => want((b.provider, b.cluster)))
        .map(b => (b.provider, b.cluster) -> k.total(b)).toArray, parts)
    ClusterEval.sumPerKey(keys, got.iterator.flatten)
  }

  override def exactTotal(q: RangeQuery): Double = {
    val k = kernel(q)
    blocks.sparkContext.runJob(blocks, (it: Iterator[Block]) => it.map(k.total).sum, filled)
      .sum.toDouble
  }
}

object BlockClusterEval {

  /** One cluster's rows, column-wise: `dims(d)(i)` is dimension `d` of row `i`. */
  final case class Block(provider: Int, cluster: Int, dims: Array[Array[Int]], measures: Array[Long])

  /** A query's predicate and aggregation over a block's columns. */
  final case class Kernel(dimIdx: Array[Int], lbs: Array[Int], ubs: Array[Int], isCount: Boolean) {
    def total(b: Block): Long = {
      var s = 0L; var i = 0
      while (i < b.measures.length) {
        var ok = true; var d = 0
        while (ok && d < dimIdx.length) {
          val v = b.dims(dimIdx(d))(i)
          ok = v >= lbs(d) && v <= ubs(d)
          d += 1
        }
        if (ok) s += (if (isCount) 1L else b.measures(i))
        i += 1
      }
      s
    }
  }

  /** Group each partition of a clustered federated DataFrame (provider_id,
    * cluster_id, dims..., measure) into per-cluster blocks in place, without
    * a shuffle, and persist them in memory. One Spark job fills the blocks
    * and collects which partitions hold each cluster.
    */
  def fromDataFrame(df: DataFrame, dims: Seq[String]): BlockClusterEval = {
    val nDims = dims.size
    val blocks = ClusterEval.loadColumns(df, dims)
      .rdd
      .mapPartitions(rows => group(rows, nDims))
      .persist(StorageLevel.MEMORY_ONLY)
    val keysPerPart = blocks.sparkContext.runJob(blocks,
      (it: Iterator[Block]) => it.map(b => (b.provider, b.cluster)).toArray)
    val index = keysPerPart.zipWithIndex
      .flatMap { case (ks, part) => ks.map(_ -> part) }
      .groupMap(_._1)(_._2)
    new BlockClusterEval(blocks, index, dims.zipWithIndex.toMap)
  }

  private def group(rows: Iterator[Row], nDims: Int): Iterator[Block] = {
    val open = mutable.LinkedHashMap.empty[(Int, Int), (Array[mutable.ArrayBuilder.ofInt], mutable.ArrayBuilder.ofLong)]
    rows.foreach { r =>
      val (ds, ms) = open.getOrElseUpdate((r.getInt(0), r.getInt(1)),
        (Array.fill(nDims)(new mutable.ArrayBuilder.ofInt), new mutable.ArrayBuilder.ofLong))
      var d = 0
      while (d < nDims) { ds(d) += r.getInt(2 + d); d += 1 }
      ms += r.getLong(2 + nDims)
    }
    open.iterator.map { case ((p, c), (ds, ms)) => Block(p, c, ds.map(_.result()), ms.result()) }
  }
}

/** Driver-side replay of the same semantics over collected rows, kept
  * sorted by `(provider, cluster)` so that each cluster's rows are one span
  * `[from, until)` of the arrays. Build it once from the clustered federated
  * DataFrame; every subsequent query is a pure in-memory scan (no Spark
  * job), and `perCluster` reads only the spans of the requested clusters.
  */
final class InMemoryClusterEval private (
    spans: Map[(Int, Int), (Int, Int)],
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
    /** The query's answer over rows `[from, until)`, exact in `Long`. */
    def sum(from: Int, until: Int): Double = {
      var s = 0L; var i = from
      while (i < until) {
        if (matches(i)) s += (if (isCount) 1L else measures(i))
        i += 1
      }
      s.toDouble
    }
  }

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val pred = new Pred(q)
    ClusterEval.keysOf(sampled).map { k =>
      k -> spans.get(k).fold(0.0) { case (from, until) => pred.sum(from, until) }
    }.toMap
  }

  override def exactTotal(q: RangeQuery): Double = new Pred(q).sum(0, measures.length)
}

object InMemoryClusterEval {
  /** Collect a clustered federated DataFrame (provider_id, cluster_id,
    * dims..., measure) into driver arrays sorted by `(provider, cluster)`:
    * the rows of a cluster split across partitions arrive apart.
    */
  def fromDataFrame(df: DataFrame, dims: Seq[String]): InMemoryClusterEval = {
    def key(r: Row): (Int, Int) = (r.getInt(0), r.getInt(1))
    val rows = ClusterEval.loadColumns(df, dims).collect().sortBy(key)
    val spans = Map.newBuilder[(Int, Int), (Int, Int)]
    var from = 0
    for (i <- 1 to rows.length)
      if (i == rows.length || key(rows(i)) != key(rows(from))) {
        spans += key(rows(from)) -> (from, i)
        from = i
      }
    new InMemoryClusterEval(spans.result(), dims.toArray,
      Array.tabulate(dims.size)(d => rows.map(_.getInt(2 + d))), rows.map(_.getLong(2 + dims.size)))
  }
}
