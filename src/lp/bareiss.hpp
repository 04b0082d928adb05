// Fraction-free (Bareiss / integer-pivoting) exact simplex.
//
// `Simplex<Rational>` keeps a Rational per tableau cell and pays a gcd
// reduction on every pivot update.  This engine keeps the tableau over
// integers instead: the initial rational tableau is scaled by the lcm of
// its denominators (`d0`), and from then on every cell is a BigInt with
// one common denominator `d0 * den` for the whole tableau, where `den` is
// the previous pivot's numerator.  A pivot on (r, c) updates every other
// row by the fraction-free identity
//
//     N'_ij = (N_ij * N_rc - N_ic * N_rj) / den
//
// (exact division -- the classical integer-pivoting invariant: each entry
// is a minor of the scaled input matrix, cf. Edmonds 1967 / Bareiss 1968)
// and leaves the pivot row untouched; afterwards `den` becomes `N_rc`.
// No per-entry gcd is ever taken.  The reduced-cost row and the objective
// corner carry an extra integer scale `s_obj` (lcm of the objective's
// denominators) and update by the same identity.  Every one of these
// updates is one `BigInt::fraction_free_update` call, which computes in
// per-thread scratch and writes into the cell's own storage, so a pivot
// makes no per-update heap allocation; the exact-division check stays,
// inside that call.
//
// Because N / (d0 * den) equals the rational tableau of `Simplex<Rational>`
// at every step, all sign tests, Bland's entering choice, the
// cross-multiplied ratio test and the tie-breaks make the *same decisions*,
// so the pivot sequence -- and therefore `Solution<Rational>` (status,
// objective, values, pivots) -- is bit-identical to the Rational engine's.
// The differential suite in tests/test_bareiss.cpp asserts exactly that.
#pragma once

#include "lp/simplex.hpp"
#include "numeric/bigint.hpp"
#include "numeric/rational.hpp"

namespace dlsched::lp {

/// Which exact LP engine a solve should use.  Both return bit-identical
/// solutions; Bareiss avoids the per-entry gcd reductions and is the
/// default everywhere.
enum class ExactEngine { Rational, Bareiss };

/// Two-phase primal simplex over an integer (fraction-free) tableau.
/// Mirrors `Simplex<Rational>` decision-for-decision; see file comment.
class BareissSimplex {
 public:
  explicit BareissSimplex(const DenseLp<numeric::Rational>& lp);

  /// Status, objective, values and pivots; `basis` stays empty.
  [[nodiscard]] Solution<numeric::Rational> solve();

 private:
  using BigInt = numeric::BigInt;
  using Rational = numeric::Rational;

  Solution<Rational> extract_optimal();
  void build_tableau();
  void load_objective(bool phase1);
  bool run_phase(bool phase1);
  void pivot(std::size_t row, std::size_t col, bool update_objective_row);
  void expel_basic_artificials();

  const DenseLp<Rational>& lp_;
  std::vector<std::vector<BigInt>> tab_;  ///< scaled integer tableau
  std::vector<BigInt> rhs_;               ///< scaled right-hand sides
  std::vector<BigInt> reduced_;           ///< scaled reduced-cost row
  std::vector<std::size_t> basis_;
  std::vector<bool> forbidden_;
  /// Rows that have hosted a pivot carry scale `den`; virgin rows carry
  /// `d0 * den` (the initial global scale never divided out of them).
  std::vector<bool> pivoted_rows_;
  BigInt objective_num_;  ///< objective * (s_obj * d0 * den)
  BigInt den_ = 1;        ///< previous pivot numerator, kept > 0
  BigInt d0_ = 1;         ///< lcm of the input tableau's denominators
  BigInt s_obj_ = 1;      ///< objective scale for the current phase
  std::size_t first_artificial_ = 0;
  bool has_artificials_ = false;
  std::size_t pivots_ = 0;
};

}  // namespace dlsched::lp
