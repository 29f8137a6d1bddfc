package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Cluster (storage-page) assignment (paper §3 "Clusters").
  *
  * Every provider stores its local tensor as a sequence of clusters of at
  * most `S` rows. Real storage pages exhibit *insertion-order locality*:
  * rows arrive roughly ordered by one natural key (time for reviews, the
  * leading attribute for a clustered index), while the remaining attributes
  * are effectively random within a page. We emulate that by sorting on the
  * **first** dimension with a deterministic hash tiebreaker and chunking the
  * order into fixed-size groups: min/max pruning (Eq 2) and pps sampling are
  * meaningful on the leading dimension, while the per-cluster proportions of
  * the other dimensions stay homogeneous — the regime the paper's estimator
  * and sensitivity analysis operate in. (A full lexicographic sort instead
  * creates boundary clusters with `R → 0`, which blows up the paper's
  * scenario-4 sensitivity `1/p`; see DESIGN.md §4.)
  */
object Clustering {
  /** Name of the cluster-id column added by [[assignPerProvider]]. */
  val ClusterCol: String = "cluster_id"

  /** Name of the provider-id column used by federated stores. */
  val ProviderCol: String = "provider_id"

  private def pageOrder(dims: Seq[String]) =
    Seq(col(dims.head), xxhash64((dims.map(col) :+ col(Tensor.MeasureCol)): _*))

  /** Add a `cluster_id` column per provider: each provider sorts its own
    * horizontal partition by the leading dimension (hash ties) and chunks it
    * into groups of at most `S` rows, so cluster ids restart at 0 within each
    * provider, as each provider owns its local storage. Deterministic for a
    * given input.
    */
  def assignPerProvider(tensor: DataFrame, dims: Seq[String], S: Int): DataFrame = {
    require(S >= 1, s"cluster size must be positive, got $S")
    val order = Window
      .partitionBy(col(ProviderCol))
      .orderBy(pageOrder(dims): _*)
    tensor
      .withColumn("_rid", row_number().over(order) - 1)
      .withColumn(ClusterCol, (col("_rid") / S).cast("int"))
      .drop("_rid")
  }
}
