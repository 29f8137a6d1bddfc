package repro.dp

/** Per-query DP budgets of §6.6, from the composition theorems (paper
  * Theorems 3.1–3.3).
  *
  * The analyst holds a total budget `(ξ, ψ)`; each query spends `(ε, δ)`.
  * Section 6.6 derives the per-query budget an attacker can afford for
  * `nQueries` queries under three regimes:
  *
  *  - sequential composition: `ε = ξ/n`, `δ = ψ/n`;
  *  - advanced composition [Kairouz et al.]:
  *    `ε = ξ / (2·√(2·n·ln(1/δ)))`, `δ = ψ/n`;
  *  - coalition (parallel composition across colluding analysts, one query
  *    each): `ε = ξ`, `δ = ψ`.
  */
object Composition {

  final case class Budget(eps: Double, delta: Double) {
    require(eps >= 0 && delta >= 0)
  }

  /** Per-query budget under sequential composition of `n` queries. */
  def sequentialPerQuery(xi: Double, psi: Double, n: Long): Budget =
    Budget(xi / n, psi / n)

  /** Per-query budget under advanced composition (§6.6 formula). */
  def advancedPerQuery(xi: Double, psi: Double, n: Long): Budget = {
    val delta = psi / n
    Budget(xi / (2.0 * math.sqrt(2.0 * n * math.log(1.0 / delta))), delta)
  }

  /** Per-query budget for a coalition of single-query attackers. */
  def coalitionPerQuery(xi: Double, psi: Double): Budget = Budget(xi, psi)
}
