package fedbench

import java.nio.file.Files

/** Benchmark JVM entry point; see `fedbench/run.py` for how it is launched.
  * Prints progress lines, then the result as one JSON object on the last
  * line. Exits 0 only if every check passed; exits non-zero without a result
  * line if the run could not complete.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args)
    val wl = Workload.byName(opts.workload)
    Files.createDirectories(opts.out)
    val spark = Session.create(opts.out)
    val code =
      try {
        val bench = new Bench(spark, wl, opts)
        val (ok, metrics) = bench.run()
        val (attempted, failed) = bench.counts
        val finite = metrics.forall(m => !m.value.isNaN && !m.value.isInfinite)
        if (!finite) println(s"[fedbench] non-finite metrics: ${metrics.filter(_.value.isNaN)}")
        val correct = ok && finite
        val body = metrics.map { m =>
          val v = if (m.value.isNaN || m.value.isInfinite) "null" else m.value.toString
          s""""${m.name}": {"value": $v, "unit": "${m.unit}"}"""
        }.mkString(", ")
        println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
          s""""metrics": {$body}}""")
        if (correct) 0 else 1
      } catch {
        case e: Throwable =>
          System.err.println("[fedbench] run aborted:")
          e.printStackTrace()
          5
      } finally spark.stop()
    System.out.flush()
    System.exit(code)
  }
}
