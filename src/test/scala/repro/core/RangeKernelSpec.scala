package repro.core

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}

import repro.SparkSpec
import repro.data.Datasets

/** The range kernel that the parquet reader, the block evaluator and
  * Figure 1's result sharing share: its spans add up at every cut, and a
  * whole block's span equals the independent in-memory reference on the
  * same rows.
  */
class RangeKernelSpec extends SparkSpec {

  private val dims = Datasets.adultDims
  private val names = dims.map(_.name)

  /** `n` random rows: one column per dimension, inside its domain, and measures in [1, 20]. */
  private def randomBlock(n: Int, rng: Random): (Array[Array[Int]], Array[Long]) =
    (dims.map(d => Array.fill(n)(d.lo + rng.nextInt(d.size))).toArray, Array.fill(n)(1L + rng.nextInt(20)))

  private def randomQuery(rng: Random): RangeQuery = Datasets.randomQuery(dims, 1 + rng.nextInt(dims.size),
    if (rng.nextBoolean()) Agg.Count else Agg.SumMeasure, rng)

  test("span(from, mid) + span(mid, until) == span(from, until) at every cut") {
    val rng = new Random(1)
    for (_ <- 1 to 20) {
      val n = rng.nextInt(25)
      val (cols, measures) = randomBlock(n, rng)
      val q = randomQuery(rng)
      val k = new RangeKernel(q, names.indexOf(_))
      def span(from: Int, until: Int) = k.span(cols, measures, from, until)
      for (from <- 0 to n; until <- from to n; mid <- from to until)
        assert(span(from, mid) + span(mid, until) == span(from, until), s"query $q, [$from, $mid, $until)")
    }
  }

  test("a whole block's span equals in-memory evaluation of the same rows") {
    val rng = new Random(2)
    // 30 clusters of one provider, three of them empty
    val blocks = Seq.tabulate(30)(c => randomBlock(if (c % 10 == 3) 0 else 1 + rng.nextInt(40), rng))
    val rows = for ((b, c) <- blocks.zipWithIndex; i <- b._2.indices)
      yield Row.fromSeq((0 +: c +: b._1.map(_(i)).toSeq) :+ b._2(i))
    val schema = StructType((Seq(Clustering.ProviderCol, Clustering.ClusterCol) ++ names)
      .map(StructField(_, IntegerType, nullable = false)) :+ StructField(Tensor.MeasureCol, LongType, nullable = false))
    val mem = InMemoryClusterEval.fromDataFrame(spark.createDataFrame(rows.asJava, schema), names)
    for (_ <- 1 to 20) {
      val q = randomQuery(rng)
      // the kernel is given the columns in a random order, through its lookup
      val order = rng.shuffle(names)
      val k = new RangeKernel(q, order.indexOf(_))
      val expected = mem.perCluster(Map(0 -> blocks.indices), q)
      for (((cols, measures), c) <- blocks.zipWithIndex) {
        val permuted = order.map(d => cols(names.indexOf(d))).toArray
        assert(k.span(permuted, measures, 0, measures.length).toDouble == expected((0, c)), s"query $q, cluster $c")
      }
    }
  }
}
