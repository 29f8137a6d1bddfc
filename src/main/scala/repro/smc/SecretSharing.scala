package repro.smc

import scala.util.Random

/** Additive secret sharing over the ring Z_2^64 (Long with wrap-around),
  * with fixed-point encoding for reals — our stand-in for the paper's MPyC
  * environment (DESIGN.md §4).
  *
  * A secret `x` is split into `n` shares that are individually uniform and
  * sum (mod 2^64) to `x`; sums of secrets are computed share-wise without
  * any party seeing another's input. This carries the same information-flow
  * guarantee as the paper's SMC sum and the same cost shape: sharing a
  * handful of scalars is cheap, sharing whole tables is linear in rows.
  */
object SecretSharing {

  /** Fixed-point scale: ~6 decimal digits of fraction. Query answers and
    * sensitivities at our scales stay far below 2^63/Scale ≈ 9.2e12.
    */
  val Scale: Double = 1e6

  def encode(x: Double): Long = math.rint(x * Scale).toLong
  def decode(l: Long): Double = l.toDouble / Scale

  /** Split `secret` into `n` additive shares (each uniform in Z_2^64). */
  def share(secret: Long, n: Int, rng: Random): Array[Long] = {
    require(n >= 2, "secret sharing needs at least 2 parties")
    val shares = new Array[Long](n)
    var acc = 0L
    var i = 0
    while (i < n - 1) { val s = rng.nextLong(); shares(i) = s; acc += s; i += 1 }
    shares(n - 1) = secret - acc // wrapping arithmetic closes the ring
    shares
  }

  def reconstruct(shares: Seq[Long]): Long = shares.foldLeft(0L)(_ + _)

  /** Secure sum of one real input per party: each party shares its value,
    * party `j` locally adds the `j`-th shares of all inputs, and only the
    * total is reconstructed. Returns the decoded sum.
    */
  def secureSum(values: Seq[Double], rng: Random): Double = {
    val n = values.size
    require(n >= 2, "secure sum needs at least 2 parties")
    val allShares: Seq[Array[Long]] = values.map(v => share(encode(v), n, rng))
    val partialSums: Seq[Long] = (0 until n).map(j => allShares.map(_(j)).sum)
    decode(reconstruct(partialSums))
  }

  /** Maximum of the parties' values, an emulation of a secure maximum: it
    * compares the plaintext values pairwise. Each comparison multiplies
    * the difference by a random positive factor, which never changes its
    * sign, so nothing is hidden; the factors are still drawn because the
    * release noise drawn after this call comes from the same `rng`, so
    * every SMC answer depends on them. Its output — the max — is what a
    * real MPC max over shares, with secure comparison gates (not
    * implemented; ROADMAP item 2), would open, and it is what the
    * aggregator needs to calibrate the single noise draw.
    */
  def secureMax(values: Seq[Double], rng: Random): Double = {
    require(values.nonEmpty)
    values.reduce { (a, b) =>
      val mask = math.abs(rng.nextDouble()) + 0.5
      if ((a - b) * mask >= 0) a else b
    }
  }
}
