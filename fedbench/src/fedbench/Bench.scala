package fedbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, count, lit, sum}

import repro.core._
import repro.federation._

/** A metric as printed: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** One run of one workload: build the federation (several times, to time
  * set-up), warm the query path up to steady state, time a single
  * closed-loop client for the run's seconds, then check every output outside
  * the clock. With tracing on, the timed window alternates `Federation.run`
  * with a span-recording replay of it and reports per-layer metrics instead.
  */
final class Bench(spark: SparkSession, wl: Workload, opts: Opts) {
  import Bench._

  private val sc = spark.sparkContext
  private val seed = opts.seed

  private var attempted = 0L
  private var failed = 0L

  private val started = System.nanoTime()

  private def say(s: String): Unit =
    println(f"[fedbench ${(System.nanoTime() - started) / 1e9}%7.2fs] $s")

  /** Count one checked operation; a false result or an exception fails it. */
  private def check(what: String)(ok: => Boolean): Boolean = {
    attempted += 1
    val r = try ok catch { case NonFatal(e) => say(s"$what threw $e"); false }
    if (!r) { failed += 1; say(s"CHECK FAILED: $what") }
    r
  }

  /** Run one operation, counting it; an exception fails it and yields None. */
  private def attempt[A](what: String)(op: => A): Option[A] = {
    attempted += 1
    try Some(op) catch {
      case NonFatal(e) => failed += 1; say(s"$what failed: $e"); None
    }
  }

  private def ms(t0: Long, t1: Long): Double = (t1 - t0) / 1e6

  private def fullGc(): Unit = { System.gc(); System.gc() }

  /** Noise seed of schedule step `t` (warm-up steps use negative `t`). */
  private def noiseSeed(t: Long): Long = seed * 1000003L + t

  def run(): (Boolean, Seq[Metric]) = {
    val counters = if (opts.trace) Some(new SparkCounters(sc)) else None
    counters.foreach(sc.addSparkListener)
    val tr = new Tracer(if (opts.trace) Some(sc) else None)

    // ---- inputs: generated and cached before any clock starts
    val raw = wl.raw(spark, wl.rawRows, seed).cache()
    check("raw input has the pinned partition count")(
      raw.rdd.getNumPartitions == Session.Parallelism)
    val rawRows = raw.count()
    check(s"raw input has ${wl.rawRows} rows")(rawRows == wl.rawRows)
    val rawCachedBytes = cachedBytes()

    val storeRoot = opts.out.resolve(s"store-${wl.name}")
    Dirs.deleteRecursively(storeRoot)

    // ---- set-up, several times; the last build is the one queried. The
    // first pays the JVM's class loading, JIT and code generation.
    val builds = mutable.ArrayBuffer.empty[Double]
    var live: Option[FederationSetup] = None
    var builtPrints = Vector.empty[(Long, String)] // (tensor rows, metadata SHA-256)
    for (i <- 0 until SetupReps) {
      live.foreach(_.clustered.unpersist(blocking = true))
      live = None
      Dirs.deleteRecursively(storeRoot)
      fullGc()
      val dir = storeRoot.resolve(s"build-$i")
      val t0 = System.nanoTime()
      val setup = tr.span("setup.build", -1) {
        Setup.build(spark, raw, wl.dims.map(_.name), NProviders, wl.clusterFrac, wl.cfg,
          wl.storage(dir), seed = wl.splitSeed(seed), skewProviders = wl.skewProviders)
      }
      val buildS = ms(t0, System.nanoTime()) / 1e3
      builds += buildS
      live = Some(setup)
      builtPrints :+= (setup.metas.map(_.clusters.map(_.nRows).sum).sum, MetaDigest.sha256(setup.metas))
      say(f"setup $i: build $buildS%.3f s")
    }
    val setup = live.get
    check("every set-up builds the same federation")(builtPrints.distinct.size == 1)
    val fp = fingerprintOf(setup, rawRows)
    check("tensor rows counted in the store equal those in the metadata")(
      fp.tensorRows == builtPrints.last._1)
    check("Σ measure equals the raw row count")(fp.measureSum == rawRows)
    say(s"fingerprint ${fp.line(wl.name, seed)}")
    FingerprintBook.read(opts.fingerprints).get((wl.name, seed)) match {
      case Some(recorded) => check("input fingerprint matches the recorded one")(fp == recorded)
      case None => say(s"NO FINGERPRINT RECORDED for seed $seed: inputs not compared")
    }

    val (storeFiles, storeBytes) =
      if (wl.parquet) Dirs.parquetStats(storeRoot) else (0L, cachedBytes() - rawCachedBytes)

    fullGc()
    val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
    val metadataBytes = MetaDigest.serializedBytes(setup.metas)

    // ---- Algorithm-1 metadata is reproducible from the clustered store: the
    // traced run re-builds every provider's (timed), an untraced run one
    // provider's, chosen by the seed
    val recheck =
      if (opts.trace) setup.metas
      else Seq(setup.metas(Math.floorMod(seed, setup.metas.size.toLong).toInt))
    val mt0 = System.nanoTime()
    val rebuilt = tr.span("core.metadata_build", -1) {
      recheck.map(m => Metadata.build(
        setup.clustered.filter(col(Clustering.ProviderCol) === m.providerId),
        setup.dims, setup.S, m.providerId))
    }
    val metadataBuildS = ms(mt0, System.nanoTime()) / 1e3
    check(s"a re-run of Metadata.build equals setup.metas for providers " +
      recheck.map(_.providerId).mkString(","))(
      MetaDigest.sha256(rebuilt) == MetaDigest.sha256(recheck))

    // ---- the federation the client queries, and an in-memory one over the
    // same clustered tensor that replays runs for error samples and checks
    val fed = setup.federation
    val replayFed = tr.span("core.inmem_load", -1)(setup.inMemory(wl.cfg))
    val queries = wl.queries(fed, seed)
    val nQ = queries.size
    say(s"${wl.name}: seed $seed, ${fp.tensorRows} tensor rows, S = ${setup.S}, " +
      s"clusters per provider ${setup.metas.map(_.clusters.size).mkString("/")}, $nQ queries")

    // exact answers from the in-memory evaluator; every timed exact scan of
    // the queried evaluator is checked against them
    val exact = queries.map(q => replayFed.exactWithTime(q)._1)
    exact.zipWithIndex.foreach { case (e, i) =>
      check(s"exact answer of query $i is finite")(!e.isNaN && !e.isInfinite)
    }
    say("exact answers computed")

    def runAt(f: Federation, t: Long): RunResult = {
      val i = Math.floorMod(t, nQ.toLong).toInt
      f.run(queries(i), wl.sr, wl.eps, wl.useSmc, noiseSeed(t), Some((exact(i), 0.0)))
    }

    // ---- warm-up
    warmUp(j => runAt(fed, -1L - j))
    if (opts.trace) {
      val untimed = new Tracer(None)
      (0 until math.min(nQ, WarmBlock)).foreach(i =>
        Replay.run(fed, setup.eval, queries(i), wl.sr, wl.eps, wl.useSmc, noiseSeed(-1L - i), untimed, i))
    }

    // ---- timed window: protocol runs cycle through the queries, with an
    // exact scan after every ExactEvery steps, so that both samples cover
    // the same stretch of time on a shared host. A traced step costs about
    // two protocol runs, so a traced run spaces the scans twice as far.
    val approx = mutable.ArrayBuffer.empty[(Long, Double, RunResult)]
    val traced = mutable.ArrayBuffer.empty[(Long, Double, Replayed)]
    val exactMs = mutable.ArrayBuffer.empty[Double]
    (0 until math.min(nQ, ExactWarmScans)).foreach(i => fed.exactWithTime(queries(i)))
    System.gc()
    val w0 = System.nanoTime()
    var t = 0L
    var u = 0
    val exactEvery = if (opts.trace) 2 * ExactEvery else ExactEvery
    def enough = exactMs.size >= MinExactSamples &&
      (if (opts.trace) traced.size >= MinTracedSamples else approx.size >= MinSamples)
    while (ms(w0, System.nanoTime()) < opts.seconds * 1e3 || !enough) {
      val i = (t % nQ).toInt
      def plain(): Unit = {
        val a0 = System.nanoTime()
        attempt(s"Federation.run #$t")(runAt(fed, t))
          .foreach(r => approx += ((t, ms(a0, System.nanoTime()), r)))
      }
      def replay(): Unit = {
        val a0 = System.nanoTime()
        attempt(s"traced replay #$t")(Replay.run(fed, setup.eval, queries(i), wl.sr, wl.eps,
          wl.useSmc, noiseSeed(t), tr, t)).foreach(r => traced += ((t, ms(a0, System.nanoTime()), r)))
      }
      // traced: every step replays; every other step also times the plain
      // run, alternating which of the two goes first
      if (!opts.trace) plain()
      else if (t % 2 == 1) replay()
      else if (t % 4 == 0) { plain(); replay() }
      else { replay(); plain() }
      t += 1
      if (t % exactEvery == 0) {
        val e = u % nQ
        val a0 = System.nanoTime()
        attempt(s"Federation.exactWithTime #$u") {
          if (opts.trace) tr.span("core.exact", ExactQueryBase + u)(fed.exactWithTime(queries(e)))
          else fed.exactWithTime(queries(e))
        }.foreach { case (v, _) =>
          exactMs += ms(a0, System.nanoTime())
          check(s"timed exact answer of query $e equals the in-memory exact")(v == exact(e))
        }
        u += 1
      }
    }
    val windowS = ms(w0, System.nanoTime()) / 1e3
    val protocolS = windowS - exactMs.sum / 1e3

    // ---- outputs, checked outside the clock
    val byStep: Map[Long, RunResult] = approx.iterator.map(x => x._1 -> x._3).toMap
    approx.foreach { case (s, _, r) =>
      check(s"answer #$s is finite")(!r.answer.isNaN && !r.answer.isInfinite)
    }
    val replayed = mutable.Map.empty[Long, RunResult]
    def replayAt(s: Long): RunResult = replayed.getOrElseUpdate(s, runAt(replayFed, s))
    approx.foreach { case (s, _, r) =>
      check(s"Spark run #$s equals its in-memory replay")(sameBits(r.answer, replayAt(s).answer))
    }
    // a replay without a timed plain run at its step is compared with
    // Federation.run on the in-memory federation, which the Spark runs equal
    traced.foreach { case (s, _, rep) =>
      check(s"traced replay #$s equals Federation.run")(
        sameBits(byStep.getOrElse(s, replayAt(s)).answer, rep.answer))
    }
    val errRuns = (0L until ErrPairs).map { s =>
      val r = replayAt(s)
      check(s"error sample #$s is finite")(!r.answer.isNaN && !r.answer.isInfinite)
      r
    }
    say("outputs checked")
    val errs = errRuns.filter(r => r.exact != 0.0)
    def rel(f: RunResult => Double) = errs.map(r => math.abs(f(r)) / math.abs(r.exact))

    val queryMs = approx.map(_._2)
    val qP50 = Stats.median(queryMs)
    val exactP50 = Stats.median(exactMs)
    say(f"timed ${approx.size} runs in $windowS%.2f s (p50 $qP50%.3f ms), " +
      f"${exactMs.size} exact scans (p50 $exactP50%.3f ms); speed-up ${exactP50 / qP50}%.2fx; " +
      s"${errs.size}/${errRuns.size} error samples with a non-zero exact answer")

    Dirs.deleteRecursively(storeRoot)

    val metrics =
      if (!opts.trace) Seq(
        Metric("query_ms_p50", qP50, "ms"),
        Metric("query_ms_p80", Stats.pct(queryMs, 0.8), "ms"),
        Metric("queries_per_s", approx.size / protocolS, "1/s"),
        Metric("exact_ms_p50", exactP50, "ms"),
        Metric("rel_err_p50", Stats.median(rel(r => r.answer - r.exact)), "ratio"),
        Metric("rel_err_p90", Stats.pct(rel(r => r.answer - r.exact), 0.9), "ratio"),
        Metric("setup_s", Stats.median(builds), "s"),
        Metric("metadata_bytes", metadataBytes.toDouble, "bytes"),
        Metric("retained_heap_mb", heap, "MB"))
      else {
        counters.foreach(_.sync())
        traceMetrics(tr, counters.get, traced.toSeq, qP50 = Stats.median(queryMs),
          builds.toSeq, metadataBuildS, storeFiles, storeBytes, setup, fp,
          rel(r => r.answer - r.noise - r.exact), rel(_.noise), rel(_.noiseScale))
      }
    if (opts.trace) {
      val path = opts.out.resolve(s"trace-${wl.name}-$seed.jsonl")
      tr.write(path)
      say(s"spans written to $path")
    }
    (failed == 0, metrics)
  }

  def counts: (Long, Long) = (attempted, failed)

  /** Blocks of [[WarmBlock]] protocol runs, cycling through the query set,
    * until the block medians stop falling: at least [[MinWarmBlocks]]
    * blocks, then until a block's median is at least [[WarmSettled]] times
    * the lowest before it, at most [[MaxWarmBlocks]]. Prints each median.
    */
  private def warmUp(step: Int => Unit): Unit = {
    val medians = mutable.ArrayBuffer.empty[Double]
    def settled = medians.size >= MinWarmBlocks && medians.last >= WarmSettled * medians.init.min
    while (medians.size < MaxWarmBlocks && !settled) {
      val k = medians.size
      medians += Stats.median((0 until WarmBlock).map { b =>
        val a0 = System.nanoTime()
        step(k * WarmBlock + b)
        ms(a0, System.nanoTime())
      })
    }
    say(s"warm-up block medians (ms): ${medians.map(m => f"$m%.3f").mkString(" ")}")
  }

  private def fingerprintOf(setup: FederationSetup, rawRows: Long): Fingerprint = {
    val row = setup.clustered.agg(count(lit(1)), sum(col(Tensor.MeasureCol))).head()
    Fingerprint(rawRows, row.getLong(0), row.getLong(1), MetaDigest.sha256(setup.metas))
  }

  private def cachedBytes(): Long =
    sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  private def traceMetrics(tr: Tracer, counters: SparkCounters,
                           traced: Seq[(Long, Double, Replayed)], qP50: Double,
                           builds: Seq[Double], metadataBuildS: Double,
                           storeFiles: Long, storeBytes: Long, setup: FederationSetup,
                           fp: Fingerprint, errSampling: Seq[Double], errNoise: Seq[Double],
                           scaleRel: Seq[Double]): Seq[Metric] = {
    val perQuery = tr.perQuery.filter(_._1 < ExactQueryBase)
    def totalMs(name: String) = perQuery.values.map(_._1.getOrElse(name, 0L) / 1e6)
    val nTraced = math.max(1, traced.size).toDouble
    val scan = counters.get("core.scan")
    val exactC = counters.get("core.exact")
    val setupC = counters.get("setup.build")
    val nExact = math.max(1, tr.all.count(_.name == "core.exact")).toDouble
    val plans = traced.flatMap(_._3.plans)
    val traceP50 = Stats.median(totalMs("query"))
    reportSelfTimes(perQuery)
    Seq(
      Metric("core.scan_ms_p50", Stats.median(totalMs("core.scan")), "ms"),
      Metric("core.scan_ms_p90", Stats.pct(totalMs("core.scan"), 0.9), "ms"),
      Metric("spark.scan_jobs", scan.jobs / nTraced, "count"),
      Metric("spark.scan_tasks", scan.tasks / nTraced, "count"),
      Metric("spark.scan_bytes_read", scan.bytesRead / nTraced, "bytes"),
      Metric("spark.scan_records_read", scan.recordsRead / nTraced, "count"),
      Metric("federation.summary_ms", Stats.median(totalMs("federation.summary")), "ms"),
      Metric("federation.allocate_ms", Stats.median(totalMs("federation.allocate")), "ms"),
      Metric("federation.plan_ms_p50", Stats.median(totalMs("federation.plan")), "ms"),
      Metric("federation.plan_ms_p90", Stats.pct(totalMs("federation.plan"), 0.9), "ms"),
      Metric("federation.covering_clusters", plans.map(_.nQ.toDouble).sum / nTraced, "count"),
      Metric("federation.sampled_clusters",
        plans.map(_.clusterIds.size.toDouble).sum / nTraced, "count"),
      Metric("federation.finish_ms", Stats.median(totalMs("federation.finish")), "ms"),
      Metric("dp.release_ms", Stats.median(totalMs("dp.release")), "ms"),
      Metric("federation.release_ms", Stats.median(perQuery.values.map { case (t, _) =>
        (t.getOrElse("dp.release", 0L) + t.getOrElse("smc.release", 0L)) / 1e6
      }), "ms"),
      Metric("core.exact_ms",
        Stats.median(tr.all.filter(_.name == "core.exact").map(_.ns / 1e6)), "ms"),
      Metric("spark.exact_bytes_read", exactC.bytesRead / nExact, "bytes"),
      Metric("err.sampling_p50", Stats.median(errSampling), "ratio"),
      Metric("err.noise_p50", Stats.median(errNoise), "ratio"),
      Metric("dp.noise_scale_rel_p50", Stats.median(scaleRel), "ratio"),
      Metric("setup.build_s", Stats.median(builds), "s"),
      Metric("core.metadata_build_s", metadataBuildS, "s"),
      Metric("spark.setup_jobs", setupC.jobs.toDouble / builds.size, "count"),
      Metric("spark.setup_tasks", setupC.tasks.toDouble / builds.size, "count"),
      Metric("setup.store_files", storeFiles.toDouble, "count"),
      Metric("setup.store_bytes", storeBytes.toDouble, "bytes"),
      Metric("core.inmem_load_s",
        Stats.median(tr.all.filter(_.name == "core.inmem_load").map(_.ns / 1e9)), "s"),
      Metric("core.clusters", setup.metas.map(_.clusters.size).sum.toDouble, "count"),
      Metric("core.tensor_rows", fp.tensorRows.toDouble, "count"),
      Metric("trace.query_ms_p50", traceP50, "ms"),
      Metric("trace.overhead_ms_p50", traceP50 - qP50, "ms"))
  }

  /** Print each layer's self time at p50 and p90 over traced queries, and
    * which layer is largest — the check of the workload's premise.
    */
  private def reportSelfTimes(perQuery: Map[Long, (Map[String, Long], Map[String, Long])]): Unit = {
    val names = perQuery.values.flatMap(_._2.keys).toSeq.distinct.sorted
    val selfMs = names.map(n => n -> perQuery.values.map(_._2.getOrElse(n, 0L) / 1e6)).toMap
    val queryMs = perQuery.values.map(_._1.getOrElse("query", 0L) / 1e6)
    val qp50 = Stats.median(queryMs)
    say("self time per query (ms):  layer  p50  p90  share-of-query-p50")
    names.sortBy(n => -Stats.median(selfMs(n))).foreach { n =>
      val p50 = Stats.median(selfMs(n))
      say(f"  $n%-20s ${p50}%10.4f ${Stats.pct(selfMs(n), 0.9)}%10.4f ${p50 / qp50 * 100}%6.1f%%")
    }
    val planSummary = perQuery.values.map { case (_, s) =>
      (s.getOrElse("federation.plan", 0L) + s.getOrElse("federation.summary", 0L)) / 1e6
    }
    val others = names.filterNot(Set("federation.plan", "federation.summary", "query"))
    say(f"  federation.plan+summary p90 ${Stats.pct(planSummary, 0.9)}%.4f ms; largest other " +
      f"layer p90 ${others.map(n => Stats.pct(selfMs(n), 0.9)).maxOption.getOrElse(0.0)}%.4f ms")
  }
}

object Bench {
  val NProviders = 4
  val SetupReps = 2
  /** At least ten samples above p80, the end-to-end tail percentile. */
  val MinSamples = 50
  /** At least ten traced samples above p90, the per-layer tail percentile. */
  val MinTracedSamples = 100
  val MinExactSamples = 24
  /** Protocol steps between two timed exact scans. */
  val ExactEvery = 2
  val ExactWarmScans = 2
  val MinWarmBlocks = 3
  val MaxWarmBlocks = 6
  val WarmSettled = 0.97
  val WarmBlock = 8
  /** (query, noise-seed) samples behind `rel_err_*` and `err.*`: four noise
    * seeds for each of the 192 queries.
    */
  val ErrPairs = 768L
  /** Query ids of exact-scan spans start here, above any protocol run's. */
  val ExactQueryBase = 1000000000L

  def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)
}
