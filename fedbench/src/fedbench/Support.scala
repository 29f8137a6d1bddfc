package fedbench

import java.io.{DataOutputStream, ObjectOutputStream, OutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.security.{DigestOutputStream, MessageDigest}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.core.ProviderMetadata

/** Command-line options of one benchmark run. */
final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      out: Path, fingerprints: Path)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val seconds = get("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Opts(get("workload"), get("seed").toLong, seconds, get("trace") == "1",
      Path.of(get("out")).toAbsolutePath, Path.of(get("fingerprints")).toAbsolutePath)
  }
}

/** The pinned Spark session: a fixed `local[N]` master and a fixed default
  * parallelism, so `spark.range` — and therefore every generated input —
  * is split into the same partitions on any machine.
  *
  * Spark's query-time code generation is off (no whole-stage code, no
  * generated expressions; adaptive execution off, 2 shuffle partitions).
  * Every protocol query carries new literals, so with code generation on
  * each one compiled fresh Java source, and that compile, paced by the
  * JIT's progress and the host's load, set both the latency and its
  * spread between runs. Interpreted evaluation measures the plan, the job
  * and the scan instead.
  */
object Session {
  val Parallelism = 4

  def create(out: Path): SparkSession = {
    val cores = math.min(Parallelism, Runtime.getRuntime.availableProcessors())
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("fedbench")
      .config("spark.default.parallelism", Parallelism.toString)
      .config("spark.sql.shuffle.partitions", "2")
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.codegen.wholeStage", "false")
      .config("spark.sql.codegen.factoryMode", "NO_CODEGEN")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .getOrCreate()
  }
}

object Stats {
  /** Percentile `p` in [0, 1] by linear interpolation between order
    * statistics; NaN for an empty sample.
    */
  def pct(xs: Iterable[Double], p: Double): Double = {
    val s = xs.toArray.sorted
    if (s.isEmpty) return Double.NaN
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Iterable[Double]): Double = pct(xs, 0.5)
}

/** Deterministic digests of the Algorithm-1 metadata. */
object MetaDigest {

  /** SHA-256 over every provider's clusters: ids, row counts, and each
    * dimension's distinct values and stored suffix proportions.
    */
  def sha256(metas: Seq[ProviderMetadata]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val out = new DataOutputStream(new DigestOutputStream(OutputStream.nullOutputStream(), md))
    for (m <- metas.sortBy(_.providerId)) {
      out.writeInt(m.providerId); out.writeInt(m.S); out.writeInt(m.clusters.size)
      for (c <- m.clusters) {
        out.writeInt(c.clusterId); out.writeLong(c.nRows)
        for (d <- m.dimNames) {
          val dm = c.dims(d)
          out.writeUTF(d); out.writeInt(dm.values.length)
          dm.values.foreach(out.writeInt)
          dm.rGe.foreach(out.writeDouble)
        }
      }
    }
    out.flush()
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  /** Size of the metadata objects as Java serialization writes them. */
  def serializedBytes(metas: Seq[ProviderMetadata]): Long = {
    var n = 0L
    val counter = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val oos = new ObjectOutputStream(counter)
    oos.writeObject(metas.toVector)
    oos.close()
    n
  }
}

/** The input fingerprint of one (workload, seed): raw rows, count-tensor
  * rows, Σ measure and the metadata digest.
  */
final case class Fingerprint(rawRows: Long, tensorRows: Long, measureSum: Long, metaSha: String) {
  def line(workload: String, seed: Long): String =
    s"$workload\t$seed\t$rawRows\t$tensorRows\t$measureSum\t$metaSha"
}

/** The committed table of recorded fingerprints, keyed by (workload, seed). */
object FingerprintBook {
  def read(p: Path): Map[(String, Long), Fingerprint] =
    Files.readAllLines(p, StandardCharsets.UTF_8).asScala.iterator
      .map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#"))
      .map { l =>
        val f = l.split("\t")
        (f(0), f(1).toLong) -> Fingerprint(f(2).toLong, f(3).toLong, f(4).toLong, f(5))
      }.toMap
}

object Dirs {
  def deleteRecursively(p: Path): Unit =
    if (Files.exists(p)) {
      val paths = Files.walk(p).iterator().asScala.toVector.reverse
      paths.foreach(Files.delete)
    }

  /** (parquet data files, their bytes) under `p`. */
  def parquetStats(p: Path): (Long, Long) =
    if (!Files.exists(p)) (0L, 0L)
    else {
      val files = Files.walk(p).iterator().asScala
        .filter(f => Files.isRegularFile(f) && f.getFileName.toString.endsWith(".parquet")).toVector
      (files.size.toLong, files.map(Files.size).sum)
    }
}
