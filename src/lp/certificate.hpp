// Exact optimality certificate for a basis that a double simplex picked.
//
// A double solve is cheap but inexact; an exact simplex solve pivots a whole
// fraction-free tableau.  Between the two sits this check: given the LP
// over integers and a basis (one column per row), it solves the k x k
// basis system B x = b and its transpose B^T y = c by fraction-free
// (Bareiss) Gauss-Jordan elimination, where k is the number of basic
// structurals, which equals the number of tight rows, and accepts only when
//
//   * x > 0                       (the vertex is primal feasible),
//   * every non-tight row holds   (its slack, the basic one, is >= 0),
//   * y > 0                       (every tight row's slack prices < 0),
//   * every nonbasic structural's reduced cost c_j - y . A_j is < 0.
//
// The first two make the vertex feasible and the last two make it dual
// feasible, so it is optimal; and with every nonbasic reduced cost strictly
// negative no other feasible point reaches its objective, so the optimum is
// unique.  A certified answer is therefore the one any exact solve returns,
// bit for bit, whatever pivots that solve would have taken.  x > 0 is
// stricter than feasibility needs: a basic structural at 0 marks a
// primal-degenerate vertex, where a ratio test met a tie that the double
// and the exact simplex may break differently, and it is left to the
// exact simplex.  When a check fails (a degenerate or tied optimum, a basis
// the double rounding chose wrongly, a singular system) the caller pivots
// the Bareiss tableau instead.
//
// Basis columns use `Simplex`'s tableau layout: column j < num_vars is
// structural j, column num_vars + i is the slack of row i (every row is an
// inequality here), and anything wider is an artificial, which no
// certificate accepts.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "lp/simplex.hpp"
#include "numeric/bigint.hpp"
#include "numeric/rational.hpp"

namespace dlsched::lp {

/// maximize objective . x  s.t.  A x <= rhs (row by row), x >= 0, with
/// integer data.  A row may carry any positive scale: the certificate's
/// decisions and answer do not depend on it.
struct IntegerLp {
  std::size_t num_vars = 0;
  std::vector<numeric::BigInt> coefficients;  ///< row-major, num_vars per row
  std::vector<numeric::BigInt> rhs;           ///< one per row
  std::vector<numeric::BigInt> objective;     ///< num_vars entries

  [[nodiscard]] std::size_t num_rows() const noexcept { return rhs.size(); }
  [[nodiscard]] const numeric::BigInt& at(std::size_t row,
                                          std::size_t col) const {
    return coefficients[row * num_vars + col];
  }
};

/// Reusable scratch for `certify`: its buffers keep their capacity, so a
/// thread that keeps one certifies without growing it once it has seen
/// its widest basis.
class BasisCertificate {
 public:
  /// Certifies `basis` optimal for `lp` with a unique optimum.  On success
  /// sets `out`'s status (Optimal), objective and values (exact, in lowest
  /// terms) and returns true; `out.pivots` and `out.basis` are left to the
  /// caller.  On failure returns false and leaves `out` unspecified.
  bool certify(const IntegerLp& lp, std::span<const std::size_t> basis,
               Solution<numeric::Rational>& out);

 private:
  using BigInt = numeric::BigInt;

  /// Fraction-free Gauss-Jordan on the k x (k + 1) augmented system in
  /// `aug_`.  On success row position i of `order_` holds `det * z_i` in
  /// its last column, with det > 0 returned in `det`; false when singular.
  bool eliminate(std::size_t k, BigInt& det);
  [[nodiscard]] BigInt& cell(std::size_t row, std::size_t col) {
    return aug_[row * width_ + col];
  }

  std::vector<std::size_t> structurals_;  ///< basic structurals S
  std::vector<std::size_t> tight_;        ///< rows whose slack is nonbasic
  std::vector<char> basic_;               ///< per column of the layout
  std::vector<BigInt> aug_;               ///< k x (k + 1), row-major
  std::vector<std::size_t> order_;        ///< row permutation of `aug_`
  std::vector<BigInt> primal_;            ///< det * x_S
  std::vector<BigInt> dual_;              ///< det * y_T
  std::size_t width_ = 0;                 ///< k + 1
  BigInt acc_;
};

}  // namespace dlsched::lp
