package fedbench

import java.io.{BufferedWriter, FileWriter}
import java.nio.file.Path

import scala.collection.mutable
import scala.util.Random

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import repro.core.{ClusterEval, RangeQuery}
import repro.dp.Laplace
import repro.federation.{Allocation, Federation, SamplingPlan}
import repro.smc.SecretSharing

/** One timed call into a layer. `query` is the id shared by every span of
  * one protocol run (-1 for offline spans); `provider` is -1 when the call is
  * not per provider.
  */
final case class Span(id: Int, parent: Int, query: Long, name: String, provider: Int,
                      startNs: Long, endNs: Long) {
  def ns: Long = endNs - startNs
}

/** In-memory span recorder. Spans nest by call order; while a span is open,
  * Spark jobs it starts carry its name as a local property, so
  * [[SparkCounters]] can attribute their tasks and input bytes to it.
  */
final class Tracer(sc: Option[SparkContext]) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String)] = Nil
  private var nextId = 0

  def span[A](name: String, query: Long, provider: Int = -1)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name) :: open
    sc.foreach(_.setLocalProperty(SparkCounters.TagKey, name))
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      sc.foreach(_.setLocalProperty(SparkCounters.TagKey, open.headOption.map(_._2).orNull))
      spans += Span(id, parent, query, name, provider, t0, t1)
    }
  }

  def all: Seq[Span] = spans.toSeq

  /** Per query id: total ns of each span name, and self ns (the span minus
    * the part of it its child spans cover).
    */
  def perQuery: Map[Long, (Map[String, Long], Map[String, Long])] = {
    val childNs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.ns).sum }
    spans.filter(_.query >= 0).groupBy(_.query).map { case (q, ss) =>
      val total = ss.groupBy(_.name).map { case (n, xs) => n -> xs.map(_.ns).sum }
      val self = ss.groupBy(_.name).map { case (n, xs) =>
        n -> xs.map(s => s.ns - childNs.getOrElse(s.id, 0L)).sum
      }
      q -> (total, self)
    }
  }

  def write(path: Path): Unit = {
    val w = new BufferedWriter(new FileWriter(path.toFile))
    try spans.foreach { s =>
      w.write(s"""{"id":${s.id},"parent":${s.parent},"query":${s.query},"name":"${s.name}",""" +
        s""""provider":${s.provider},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
      w.newLine()
    } finally w.close()
  }
}

/** Spark listener counting jobs, tasks and input bytes/records per span
  * name (the local property a [[Tracer]] sets while a span is open).
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  final class Acc { var jobs = 0L; var tasks = 0L; var bytesRead = 0L; var recordsRead = 0L }

  private val byTag = mutable.Map.empty[String, Acc]
  private val stageTag = mutable.Map.empty[Int, String]
  private var syncSeen = 0
  private var syncSent = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.TagKey)))
      .getOrElse("untagged")
    if (tag.startsWith(SparkCounters.SyncTag)) syncSeen += 1
    else {
      byTag.getOrElseUpdate(tag, new Acc).jobs += 1
      e.stageIds.foreach(stageTag(_) = tag)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageTag.get(e.stageId).foreach { tag =>
      val a = byTag.getOrElseUpdate(tag, new Acc)
      a.tasks += 1
      if (e.taskMetrics != null) {
        a.bytesRead += e.taskMetrics.inputMetrics.bytesRead
        a.recordsRead += e.taskMetrics.inputMetrics.recordsRead
      }
    }
  }

  /** Block until every event posted before this call has been handled: run
    * a marker job and wait for the listener to see it (the bus delivers a
    * listener's events in order).
    */
  def sync(): Unit = {
    syncSent += 1
    sc.setLocalProperty(SparkCounters.TagKey, SparkCounters.SyncTag)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(SparkCounters.TagKey, null)
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (synchronized(syncSeen) < syncSent) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("Spark listener stalled")
      Thread.sleep(5)
    }
  }

  def get(tag: String): Acc = synchronized(byTag.getOrElse(tag, new Acc))
}

object SparkCounters {
  val TagKey = "fedbench.span"
  val SyncTag = "fedbench.sync"
}

/** What a replayed protocol run released, plus the plans behind it. */
final case class Replayed(answer: Double, plans: Seq[SamplingPlan])

/** `Federation.run` replayed call by call through the layers' public
  * functions, in the same order and from the same seed, with a span around
  * each call. Its answer must equal `Federation.run`'s bit for bit; the
  * benchmark checks that on every traced run.
  */
object Replay {
  def run(fed: Federation, eval: ClusterEval, q: RangeQuery, sr: Double, eps: Double,
          useSmc: Boolean, seed: Long, tr: Tracer, qid: Long): Replayed = {
    val rng = new Random(seed)
    val lap = new Laplace(rng)
    val cfg = fed.cfg
    val epsO = cfg.hp1 * eps
    val epsS = cfg.hp2 * eps
    val epsE = cfg.hp3 * eps
    tr.span("query", qid) {
      val summaries = fed.providers.map(p =>
        tr.span("federation.summary", qid, p.providerId)(p.summary(q, epsO, lap)))
      val alloc = tr.span("federation.allocate", qid)(Allocation.allocate(summaries, sr))
      val plans = fed.providers.map(p =>
        tr.span("federation.plan", qid, p.providerId)(p.plan(q, alloc(p.providerId), epsS, rng)))
      val sampled = plans.map(p => p.providerId -> (p.clusterIds: Seq[Int])).toMap
      val qcAll = tr.span("core.scan", qid)(eval.perCluster(sampled, q))
      val answers = fed.providers.zip(plans).map { case (p, pl) =>
        tr.span("federation.finish", qid, p.providerId) {
          val qc = pl.clusterIds.iterator
            .map(c => c -> qcAll.getOrElse((pl.providerId, c), 0.0)).toMap
          p.finish(q, pl, qc, epsE, cfg.delta)
        }
      }
      val answer =
        if (useSmc) {
          val (sum, maxNum) = tr.span("smc.release", qid) {
            (SecretSharing.secureSum(answers.map(_.estimate), rng),
              SecretSharing.secureMax(answers.map(_.sensNumerator), rng))
          }
          sum + tr.span("dp.release", qid)(
            if (epsE.isPosInfinity) 0.0 else lap.noise(maxNum / epsE))
        } else {
          tr.span("dp.release", qid) {
            answers.map { a =>
              if (epsE.isPosInfinity) a.estimate
              else a.estimate + lap.noise(a.sensNumerator / epsE)
            }
          }.sum
        }
      Replayed(answer, plans)
    }
  }
}
