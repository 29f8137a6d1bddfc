package repro.core

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.concurrent.{Await, Future}
import scala.concurrent.ExecutionContext.Implicits.global
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._
import scala.util.Using

import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.Path
import org.apache.parquet.HadoopReadOptions
import org.apache.parquet.column.ColumnReader
import org.apache.parquet.column.impl.ColumnReadStoreImpl
import org.apache.parquet.example.DummyRecordConverter
import org.apache.parquet.filter2.compat.FilterCompat
import org.apache.parquet.filter2.predicate.{FilterApi, FilterPredicate}
import org.apache.parquet.hadoop.ParquetFileReader
import org.apache.parquet.hadoop.metadata.ParquetMetadata
import org.apache.parquet.hadoop.util.HadoopInputFile
import org.apache.parquet.schema.{GroupType, MessageType}
import org.apache.parquet.schema.PrimitiveType.PrimitiveTypeName
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
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
  * Three implementations exist (DESIGN.md §3). [[ParquetClusterEval]]
  * reads the parquet pages of the sampled clusters directly, one driver
  * thread per provider and no Spark job, and decodes only those pages: the
  * I/O saving. [[BlockClusterEval]] runs one Spark job over the cached
  * store's per-cluster blocks, on only the partitions holding sampled
  * clusters. Both sum rows with the one [[RangeKernel]].
  * [[InMemoryClusterEval]] replays the same semantics over arrays collected
  * into the JVM, with its own predicate, for statistical tests and the
  * attack bench, which make thousands of protocol runs, and as the
  * independent reference the other evaluators are checked against.
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

/** Evaluation over `Setup.build`'s parquet store: one file per provider,
  * its rows sorted by `cluster_id`, with one page per cluster.
  *
  * `perCluster` runs no Spark job. It reads the files on driver threads,
  * one per provider that has sampled clusters, in parallel, as the paper's
  * providers each scan their own pages, and waits for all of them. Each
  * reader opens its provider's file with parquet-mr, from the footer read
  * once by `fromStore`, and projects `cluster_id`, the query's dimensions
  * and `measure`. The `cluster_id` column index then selects the pages to
  * decode: only those whose [min, max] holds a sampled id, in every row
  * group. This is page-level cluster sampling, as over the paper's
  * PostgreSQL pages. The reader decodes each row group's columns once and
  * sums each sampled cluster's run of rows in place with the query's
  * [[RangeKernel]], so it returns one `Long` per cluster and row group
  * holding it. Files are opened through Hadoop's `FileSystem`, so an
  * `hdfs://` store is read the same way.
  *
  * `exactTotal` is the plain-text baseline: a DataFrame full scan of `df`,
  * summed in each task.
  *
  * @param df    the store read back as a DataFrame
  * @param files each provider's file; a provider without one has no rows
  * @param conf  the session's Hadoop configuration
  */
final class ParquetClusterEval private (df: DataFrame, files: Map[Int, ParquetClusterEval.StoreFile],
                                        conf: Configuration) extends ClusterEval {
  import Clustering.ClusterCol
  import ParquetClusterEval.{anyOf, ints, longs, StoreFile}

  private val decoded = new AtomicLong

  /** Rows the `perCluster` readers have decoded so far, over every call. */
  def rowsDecoded: Long = decoded.get

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val dims = q.ranges.map(_.dim)
    val k = new RangeKernel(q, dims.indexOf(_))
    // the global pool's threads are daemons: they keep no JVM alive
    val scans = sampled.toSeq.collect {
      case (p, cs) if cs.nonEmpty && files.contains(p) => Future(scan(p, files(p), cs.toArray, dims, k))
    }
    ClusterEval.sumPerKey(ClusterEval.keysOf(sampled), scans.iterator.flatMap(Await.result(_, Duration.Inf)))
  }

  /** Reads the plan's internal rows: `Dataset.rdd` would plan the query a
    * second time and convert each row to a `Row`.
    */
  override def exactTotal(q: RangeQuery): Double =
    df.filter(q.predicate).select(q.contribution).queryExecution.toRdd
      .mapPartitions(rows => Iterator.single(rows.map(_.getLong(0)).sum))
      .collect().sum.toDouble

  /** One provider's reader: decode the pages of `file` that may hold a
    * cluster in `clusters`, and sum the query's kernel over each of those
    * clusters' rows, per row group. `dims` are the kernel's columns.
    */
  private def scan(provider: Int, file: StoreFile, clusters: Array[Int], dims: Seq[String],
                   k: RangeKernel): Seq[((Int, Int), Long)] = {
    val want = clusters.toSet
    val opts = HadoopReadOptions.builder(conf, file.input.getPath)
      .withRecordFilter(FilterCompat.get(anyOf(clusters)))
      .useColumnIndexFilter(true)
      // these would read more to drop whole row groups, not pages
      .useDictionaryFilter(false)
      .useBloomFilter(false)
      .build()
    val meta = file.footer.getFileMetaData
    val schema: GroupType = meta.getSchema // for its one-name `getType`
    val projection = new MessageType(schema.getName,
      (ClusterCol +: dims :+ Tensor.MeasureCol).map(c => schema.getType(c)): _*)
    val out = mutable.ArrayBuffer.empty[((Int, Int), Long)]
    Using.resource(ParquetFileReader.open(file.input, file.footer, opts, file.input.newStream())) { reader =>
      reader.setRequestedSchema(projection)
      val root = new DummyRecordConverter(projection).getRootConverter
      var rowGroup = reader.readNextFilteredRowGroup()
      while (rowGroup != null) {
        // the rows of the selected pages, in file order
        val n = Math.toIntExact(rowGroup.getRowCount)
        val store = new ColumnReadStoreImpl(rowGroup, root, projection, meta.getCreatedBy)
        val cols = projection.getColumns.asScala.map(store.getColumnReader)
        val ids = ints(cols.head, n)
        val dimCols = cols.slice(1, 1 + dims.size).map(ints(_, n)).toArray
        val measures = longs(cols.last, n)
        var from = 0
        while (from < n) {
          var until = from + 1
          while (until < n && ids(until) == ids(from)) until += 1
          if (want(ids(from))) out += (provider, ids(from)) -> k.span(dimCols, measures, from, until)
          from = until
        }
        decoded.addAndGet(n)
        rowGroup = reader.readNextFilteredRowGroup()
      }
    }
    out.toSeq
  }
}

object ParquetClusterEval {
  import Clustering.{ClusterCol, ProviderCol}

  /** A provider's file, with the footer every query's reader reuses. */
  private[core] final case class StoreFile(input: HadoopInputFile, footer: ParquetMetadata)

  /** The evaluator over `df`, a store of one parquet file per provider.
    * Each file's provider id is read from its footer: the statistics of
    * its `provider_id` column chunks, which must all hold one value.
    */
  def fromStore(df: DataFrame): ParquetClusterEval = {
    val conf = df.sparkSession.sparkContext.hadoopConfiguration
    val files = df.inputFiles.toSeq.map { f =>
      val path = new Path(f)
      val input = HadoopInputFile.fromPath(path, conf)
      // without Hadoop options, parquet-mr builds a fresh Configuration: ~7 ms a file
      val footer = Using.resource(ParquetFileReader.open(input,
        HadoopReadOptions.builder(conf, path).build()))(_.getFooter)
      val chunks = footer.getBlocks.asScala
        .flatMap(_.getColumns.asScala.filter(_.getPath.toDotString == ProviderCol))
      val ids = chunks.flatMap(c => Seq[Any](c.getStatistics.genericGetMin, c.getStatistics.genericGetMax))
        .distinct
      require(ids.size == 1, s"$f: expected one $ProviderCol, found ${ids.mkString(", ")}")
      ids.head.asInstanceOf[Integer].intValue -> StoreFile(input, footer)
    }
    require(files.map(_._1).distinct.size == files.size,
      s"one file per provider expected: ${files.map { case (p, f) => p -> f.input }.mkString(", ")}")
    new ParquetClusterEval(df, files.toMap, conf)
  }

  /** `cluster_id` equals one of `ids` (not empty), as a balanced tree of
    * `eq`s: parquet's column index tests an `in` set only by its [min, max],
    * so it would keep every page between two sampled clusters.
    */
  private def anyOf(ids: Array[Int]): FilterPredicate =
    if (ids.size == 1) FilterApi.eq(FilterApi.intColumn(ClusterCol), Integer.valueOf(ids.head))
    else {
      val (a, b) = ids.splitAt(ids.size / 2)
      FilterApi.or(anyOf(a), anyOf(b))
    }

  /** Passes the next `n` values of an `INT32` or `INT64` column without
    * nulls to `put(i, value)`.
    */
  private def decode(r: ColumnReader, n: Int)(put: (Int, Long) => Unit): Unit = {
    val d = r.getDescriptor
    val int32 = d.getPrimitiveType.getPrimitiveTypeName == PrimitiveTypeName.INT32
    var i = 0
    while (i < n) {
      require(r.getCurrentDefinitionLevel == d.getMaxDefinitionLevel, s"null in ${d.getPath.mkString(".")}")
      put(i, if (int32) r.getInteger.toLong else r.getLong)
      r.consume()
      i += 1
    }
  }

  /** The next `n` values of a column, as [[decode]] reads them: `ints`
    * narrows each exactly to `Int`, `longs` keeps them as they are.
    */
  private def ints(r: ColumnReader, n: Int): Array[Int] = {
    val out = new Array[Int](n)
    decode(r, n)((i, v) => out(i) = Math.toIntExact(v))
    out
  }

  private def longs(r: ColumnReader, n: Int): Array[Long] = {
    val out = new Array[Long](n)
    decode(r, n)(out(_) = _)
    out
  }
}

/** Evaluation over per-cluster column blocks kept in Spark's memory: each
  * `(provider, cluster)` is one [[BlockClusterEval.Block]] (an `Int` column
  * per dimension and the measures), and an index held by the evaluator
  * maps each cluster to the partitions holding its rows. `perCluster` is one
  * job over only the partitions of the sampled clusters, and runs the
  * query's [[RangeKernel]] only on their blocks: the cached analog of
  * reading only the sampled pages.
  *
  * The evaluator alone holds the blocks, so Spark's ContextCleaner drops
  * them once the evaluator is unreachable.
  */
final class BlockClusterEval private (blocks: RDD[BlockClusterEval.Block],
                                      index: Map[(Int, Int), Array[Int]],
                                      dimIndex: Map[String, Int]) extends ClusterEval {
  import BlockClusterEval.Block

  /** Partitions holding any block: the cached store's shuffle may leave
    * many partitions empty, and the exact scan skips them.
    */
  private val filled: Seq[Int] = index.valuesIterator.flatten.toSeq.distinct.sorted

  override def perCluster(sampled: Map[Int, Seq[Int]], q: RangeQuery): Map[(Int, Int), Double] = {
    val keys = ClusterEval.keysOf(sampled)
    val parts = keys.flatMap(index.getOrElse(_, Array.emptyIntArray)).distinct.sorted
    if (parts.isEmpty) return ClusterEval.sumPerKey(keys, Nil)
    // the task closure captures only these two values, not the evaluator
    val k = new RangeKernel(q, dimIndex)
    val want = keys.toSet
    val got = blocks.sparkContext.runJob(blocks, (it: Iterator[Block]) =>
      it.filter(b => want((b.provider, b.cluster)))
        .map(b => (b.provider, b.cluster) -> b.total(k)).toArray, parts)
    ClusterEval.sumPerKey(keys, got.iterator.flatten)
  }

  override def exactTotal(q: RangeQuery): Double = {
    val k = new RangeKernel(q, dimIndex)
    blocks.sparkContext.runJob(blocks, (it: Iterator[Block]) => it.map(_.total(k)).sum, filled)
      .sum.toDouble
  }
}

object BlockClusterEval {

  /** One cluster's rows, column-wise: `dims(d)(i)` is dimension `d` of row `i`. */
  final case class Block(provider: Int, cluster: Int, dims: Array[Array[Int]], measures: Array[Long]) {
    /** The kernel's query over every row of the block. */
    def total(k: RangeKernel): Long = k.span(dims, measures, 0, measures.length)
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
