// Dense two-phase primal simplex, templated on the scalar type.
//
// Instantiated with `numeric::Rational` it is an *exact* LP solver: Bland's
// pivoting rule guarantees termination and exact arithmetic guarantees the
// returned vertex is a true optimum -- which is what lets the test suite
// assert the paper's theorems as exact statements.  Instantiated with
// `double` it is a fast approximate solver used by the benchmark sweeps,
// and the first half of every exact scenario solve: it reports its
// whole final basis (`Solution::basis`, slack columns included), which
// `BasisCertificate` (lp/certificate.hpp) then proves optimal and unique
// in exact integer arithmetic.
//
// Standard form handled: maximize c^T x  s.t.  A x {<=,>=,==} b,  x >= 0.
// Rows with negative b are flipped on entry, so any sign of b is accepted.
//
// The tableau is one flat row-major buffer with a fixed row stride, so a
// column entry is `tab_[i * stride_ + col]`.  A solver can be `reset` onto
// another LP and solved again into a caller-held `Solution`: every buffer
// keeps its capacity, so once a solver has seen its widest LP a solve
// allocates nothing.  `solve_scenario_double` keeps one such solver per
// thread (core/scenario_lp.cpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace dlsched::lp {

enum class Relation { LessEq, GreaterEq, Equal };

enum class Status { Optimal, Infeasible, Unbounded };

[[nodiscard]] constexpr const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::Optimal: return "optimal";
    case Status::Infeasible: return "infeasible";
    case Status::Unbounded: return "unbounded";
  }
  return "?";
}

/// Dense row kernels of the double pivot: `row[j] *= factor` and
/// `target[j] -= factor * source[j]` for j in [0, width).  `width` is a
/// multiple of kRowBlock (the double tableau pads its rows to one; see
/// `Simplex::stride_`), so the loops run in whole blocks, whose
/// fixed-count inner loops vectorize at -O2 (GCC's very-cheap cost model
/// rejects a loop that needs an alias check or an epilogue: the
/// restrict-qualified rows need no check, and a block needs no epilogue).
/// Every entry still gets the same one multiply (and one subtract), so the
/// bits are those of the plain loop.
inline constexpr std::size_t kRowBlock = 4;

template <class T>
void scale_row(T* __restrict row, std::size_t width, T factor) {
  for (std::size_t j = 0; j < width; j += kRowBlock) {
    for (std::size_t k = 0; k < kRowBlock; ++k) row[j + k] *= factor;
  }
}

template <class T>
void sub_scaled_row(T* __restrict target, const T* __restrict source,
                    std::size_t width, T factor) {
  for (std::size_t j = 0; j < width; j += kRowBlock) {
    for (std::size_t k = 0; k < kRowBlock; ++k) {
      target[j + k] -= factor * source[j + k];
    }
  }
}

/// Result of a solve.  `values` has one entry per structural variable; a
/// row's slack at the optimum is a function of them (`LpProblem::row_slack`).
/// `basis`, filled by `Simplex`, is the whole final basis, one tableau
/// column per row in row order: column j < num_vars is structural j, the
/// next columns are the slack or surplus of each inequality row in row
/// order, and the rest are artificials.  It is what `BasisCertificate`
/// checks (lp/certificate.hpp).  A degenerate vertex admits several bases
/// for one optimum, so the basis says how the solve ended, not what the
/// optimum is.
template <class T>
struct Solution {
  Status status = Status::Infeasible;
  T objective{};
  std::vector<T> values;
  std::vector<std::size_t> basis;
  std::size_t pivots = 0;
};

/// Scalar-dependent comparison policy.  Rational is exact; double uses a
/// fixed tolerance.  `sub_mul` is the `target -= a * b` update of every
/// pivot inner loop: the Rational overload short-circuits zero factors
/// before any arithmetic (see Rational::sub_mul).
template <class T>
struct ScalarPolicy {
  /// The pivot's row loops test every entry and skip exact zeros: for an
  /// exact scalar a skipped update is a skipped allocation and gcd.
  static constexpr bool kSkipZeroEntries = true;
  static bool is_positive(const T& v) { return v.is_positive(); }
  static bool is_negative(const T& v) { return v.is_negative(); }
  static bool is_zero(const T& v) { return v.is_zero(); }
  /// Safe-to-skip test for the pivot inner loops.  For exact scalars this
  /// is the same as `is_zero`; for double it must be a *bitwise* zero:
  /// skipping a sub-tolerance entry that the pivot scaling would have
  /// amplified (pivot elements can themselves sit near the tolerance)
  /// would silently change the elimination.
  static bool is_skippable_zero(const T& v) { return v.is_zero(); }
  static void sub_mul(T& target, const T& a, const T& b) {
    target.sub_mul(a, b);
  }
};

template <>
struct ScalarPolicy<double> {
  /// The pivot's row loops update every entry without a test.  The skipped
  /// entries were bitwise zeros, and `t - f * 0` equals t except that it
  /// can flip the sign of a zero t; no comparison and no output reads that
  /// sign, so the results keep their bits.
  static constexpr bool kSkipZeroEntries = false;
  static constexpr double kEps = 1e-9;
  static bool is_positive(double v) { return v > kEps; }
  static bool is_negative(double v) { return v < -kEps; }
  static bool is_zero(double v) { return v >= -kEps && v <= kEps; }
  static bool is_skippable_zero(double v) { return v == 0.0; }
  static void sub_mul(double& target, double a, double b) { target -= a * b; }
};

/// Dense standard-form LP instance, scalar type T.  The coefficients are
/// one row-major block of `num_vars` entries per row, so an instance that
/// is refilled in place keeps its storage (see `solve_scenario_double`).
template <class T>
struct DenseLp {
  std::size_t num_vars = 0;
  std::vector<T> coefficients;         ///< row-major, num_vars per row
  std::vector<Relation> relations;     ///< one per row
  std::vector<T> rhs;
  std::vector<T> objective;            ///< size num_vars; maximized

  [[nodiscard]] std::size_t num_rows() const noexcept {
    return relations.size();
  }
  [[nodiscard]] std::span<T> row(std::size_t i) {
    return std::span<T>(coefficients).subspan(i * num_vars, num_vars);
  }
  [[nodiscard]] std::span<const T> row(std::size_t i) const {
    return std::span<const T>(coefficients).subspan(i * num_vars, num_vars);
  }

  void add_row(const std::vector<T>& row_coefficients, Relation relation,
               T bound) {
    DLSCHED_EXPECT(row_coefficients.size() == num_vars,
                   "row width does not match variable count");
    coefficients.insert(coefficients.end(), row_coefficients.begin(),
                        row_coefficients.end());
    relations.push_back(relation);
    rhs.push_back(std::move(bound));
  }
};

/// Two-phase dense tableau simplex with Bland's rule.
template <class T>
class Simplex {
 public:
  /// A solver with no LP yet: `reset` points it at one.
  Simplex() = default;
  explicit Simplex(const DenseLp<T>& lp) { reset(lp); }

  /// Points the solver at `lp`, which must outlive the next solve.  The
  /// tableau keeps its buffers, so solving LPs no wider than the widest
  /// one seen before allocates nothing.
  void reset(const DenseLp<T>& lp) {
    DLSCHED_EXPECT(lp.objective.size() == lp.num_vars,
                   "objective width does not match variable count");
    lp_ = &lp;
  }

  [[nodiscard]] Solution<T> solve() {
    Solution<T> out;
    solve_into(out);
    return out;
  }

  /// Solves into `out`, whose vectors keep their capacity.
  void solve_into(Solution<T>& out) {
    DLSCHED_EXPECT(lp_ != nullptr, "simplex: no LP to solve");
    pivots_ = 0;
    build_tableau();
    if (has_artificials_) {
      run_phase(/*phase1=*/true);
      if (P::is_negative(objective_value_)) {
        report(Status::Infeasible, out);
        return;
      }
      expel_basic_artificials();
    }
    if (!run_phase(/*phase1=*/false)) {
      report(Status::Unbounded, out);
      return;
    }
    extract_optimal(out);
  }

 private:
  using P = ScalarPolicy<T>;

  /// A solve that ended without an optimum: no objective, no values.
  void report(Status status, Solution<T>& out) const {
    out.status = status;
    out.objective = T{};
    out.values.clear();
    out.basis.clear();
    out.pivots = pivots_;
  }

  void extract_optimal(Solution<T>& out) const {
    out.status = Status::Optimal;
    out.pivots = pivots_;
    out.objective = objective_value_;
    out.values.assign(lp_->num_vars, T{});
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < lp_->num_vars) out.values[basis_[i]] = rhs_[i];
    }
    out.basis.assign(basis_.begin(), basis_.end());
  }

  T* row(std::size_t i) { return tab_.data() + i * stride_; }
  const T* row(std::size_t i) const { return tab_.data() + i * stride_; }

  /// Min-ratio leaving row for entering column `col`, Bland tie-break on
  /// the smallest basis variable index; `rows_` when no entry is positive.
  std::size_t leaving_row(std::size_t col) const {
    std::size_t leaving = rows_;
    T best_ratio{};
    for (std::size_t i = 0; i < rows_; ++i) {
      const T& coeff = row(i)[col];
      if (!P::is_positive(coeff)) continue;
      T ratio = rhs_[i] / coeff;
      if (leaving == rows_ || ratio < best_ratio ||
          (!(best_ratio < ratio) && basis_[i] < basis_[leaving])) {
        leaving = i;
        best_ratio = ratio;
      }
    }
    return leaving;
  }

  /// A row with a negative right-hand side is negated on entry, which
  /// swaps its <= and >=.
  Relation normalized_relation(std::size_t i) const {
    const Relation relation = lp_->relations[i];
    if (!P::is_negative(lp_->rhs[i])) return relation;
    if (relation == Relation::LessEq) return Relation::GreaterEq;
    if (relation == Relation::GreaterEq) return Relation::LessEq;
    return relation;
  }

  void build_tableau() {
    const DenseLp<T>& lp = *lp_;
    const std::size_t m = lp.num_rows();
    // Column layout: [structural | slack/surplus | artificial].
    std::size_t extra = 0;
    std::size_t num_art = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (lp.relations[i] != Relation::Equal) ++extra;
      if (normalized_relation(i) != Relation::LessEq) ++num_art;
    }
    has_artificials_ = num_art > 0;
    rows_ = m;
    width_ = lp.num_vars + extra + num_art;
    first_artificial_ = lp.num_vars + extra;
    // The double pivot's row kernels run over whole blocks: pad each row
    // to a multiple of kRowBlock.  The padding starts at zero, and the
    // kernels only ever write zero - f * 0 or 0 * f there; nothing reads it.
    stride_ = P::kSkipZeroEntries
                  ? width_
                  : (width_ + kRowBlock - 1) / kRowBlock * kRowBlock;
    tab_.assign(m * stride_, T{});
    rhs_.resize(m);
    basis_.assign(m, 0);

    std::size_t next_extra = lp.num_vars;
    std::size_t next_art = first_artificial_;
    for (std::size_t i = 0; i < m; ++i) {
      const bool flip = P::is_negative(lp.rhs[i]);
      const std::span<const T> source = lp.row(i);
      T* const target = row(i);
      for (std::size_t j = 0; j < lp.num_vars; ++j) {
        target[j] = flip ? T{} - source[j] : source[j];
      }
      rhs_[i] = flip ? T{} - lp.rhs[i] : lp.rhs[i];
      switch (normalized_relation(i)) {
        case Relation::LessEq:
          target[next_extra] = T{1};
          basis_[i] = next_extra++;
          break;
        case Relation::GreaterEq:
          target[next_extra] = T{} - T{1};
          ++next_extra;
          target[next_art] = T{1};
          basis_[i] = next_art++;
          break;
        case Relation::Equal:
          target[next_art] = T{1};
          basis_[i] = next_art++;
          break;
      }
    }
  }

  /// Recomputes the reduced-cost row for the given phase's objective.
  void load_objective(bool phase1) {
    reduced_.assign(stride_, T{});
    objective_value_ = T{};
    auto cost_of = [&](std::size_t var) -> T {
      if (phase1) {
        return var >= first_artificial_ ? T{} - T{1} : T{};
      }
      return var < lp_->num_vars ? lp_->objective[var] : T{};
    };
    for (std::size_t j = 0; j < width_; ++j) reduced_[j] = cost_of(j);
    for (std::size_t i = 0; i < rows_; ++i) {
      const T cb = cost_of(basis_[i]);
      if (P::is_zero(cb)) continue;
      const T* const source = row(i);
      for (std::size_t j = 0; j < width_; ++j) {
        if (P::is_skippable_zero(source[j])) continue;
        P::sub_mul(reduced_[j], cb, source[j]);
      }
      objective_value_ += cb * rhs_[i];
    }
  }

  /// Runs one simplex phase; returns false iff unbounded (phase 2 only).
  bool run_phase(bool phase1) {
    load_objective(phase1);
    // Phase 2 must never re-enter an artificial column.
    const std::size_t admissible = phase1 ? width_ : first_artificial_;
    const std::size_t iteration_cap = 10000 * (rows_ + width_ + 1);
    for (std::size_t iter = 0; iter < iteration_cap; ++iter) {
      // Bland: entering column = smallest index with positive reduced cost.
      std::size_t entering = admissible;
      for (std::size_t j = 0; j < admissible; ++j) {
        if (P::is_positive(reduced_[j])) {
          entering = j;
          break;
        }
      }
      if (entering == admissible) return true;  // optimal for this phase
      const std::size_t leaving = leaving_row(entering);
      if (leaving == rows_) return false;  // unbounded direction
      pivot(leaving, entering);
    }
    DLSCHED_FAIL("simplex iteration cap exceeded (cycling?)");
  }

  /// Pivots on (row, col).  The inner loops pre-test pivot-row entries for
  /// zero: after a few pivots most tableau columns hold exact zeros (slack
  /// identity sub-blocks), and skipping them avoids the whole scalar
  /// update -- which for Rational means skipping allocations and gcds, not
  /// just a multiply.  Double pivots take `pivot_without_tests` instead.
  void pivot(std::size_t pivot_row, std::size_t col) {
    ++pivots_;
    if constexpr (!P::kSkipZeroEntries) {
      pivot_without_tests(pivot_row, col);
      return;
    }
    T* const prow = row(pivot_row);
    const T inv = T{1} / prow[col];
    for (std::size_t j = 0; j < width_; ++j) {
      if (!P::is_skippable_zero(prow[j])) prow[j] *= inv;
    }
    rhs_[pivot_row] *= inv;
    prow[col] = T{1};
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == pivot_row) continue;
      T* const trow = row(i);
      // The factor is the row's own pivot-column entry: the j == col entry
      // is skipped in the loop and zeroed after the last `factor` read, so
      // no copy of the factor is needed.
      const T& factor = trow[col];
      if (P::is_zero(factor)) continue;
      for (std::size_t j = 0; j < width_; ++j) {
        if (j == col) continue;
        const T& pv = prow[j];
        if (P::is_skippable_zero(pv)) continue;
        P::sub_mul(trow[j], factor, pv);
      }
      P::sub_mul(rhs_[i], factor, rhs_[pivot_row]);
      trow[col] = T{};
    }
    const T rfactor = reduced_[col];
    if (!P::is_zero(rfactor)) {
      for (std::size_t j = 0; j < width_; ++j) {
        if (j == col) continue;
        const T& pv = prow[j];
        if (P::is_skippable_zero(pv)) continue;
        P::sub_mul(reduced_[j], rfactor, pv);
      }
      reduced_[col] = T{};
      objective_value_ += rfactor * rhs_[pivot_row];
    }
    basis_[pivot_row] = col;
  }

  /// The same pivot with no per-entry zero test and no `j == col` test in
  /// its three row loops, so they run as the vector row kernels above,
  /// over whole padded rows.  The pivot column's entries come out as
  /// 1 - 1 and f - f * 1, both overwritten after the loop as before; each
  /// factor is copied first, because the loop writes the entry it was read
  /// from.  Distinct rows never overlap in the flat tableau, so the
  /// kernels' restrict contract holds.
  void pivot_without_tests(std::size_t pivot_row, std::size_t col) {
    T* const prow = row(pivot_row);
    const T inv = T{1} / prow[col];
    scale_row(prow, stride_, inv);
    rhs_[pivot_row] *= inv;
    prow[col] = T{1};  // kill residual rounding
    for (std::size_t i = 0; i < rows_; ++i) {
      if (i == pivot_row) continue;
      T* const trow = row(i);
      const T factor = trow[col];
      if (P::is_zero(factor)) continue;
      sub_scaled_row(trow, prow, stride_, factor);
      rhs_[i] -= factor * rhs_[pivot_row];
      trow[col] = T{};
    }
    const T rfactor = reduced_[col];
    if (!P::is_zero(rfactor)) {
      sub_scaled_row(reduced_.data(), prow, stride_, rfactor);
      reduced_[col] = T{};
      objective_value_ += rfactor * rhs_[pivot_row];
    }
    basis_[pivot_row] = col;
  }

  /// After phase 1, any artificial still basic sits at value zero; pivot it
  /// out on a non-artificial column, or drop the (redundant) row.
  void expel_basic_artificials() {
    for (std::size_t i = 0; i < rows_; ++i) {
      if (basis_[i] < first_artificial_) continue;
      std::size_t col = first_artificial_;
      for (std::size_t j = 0; j < first_artificial_; ++j) {
        if (!P::is_zero(row(i)[j])) {
          col = j;
          break;
        }
      }
      if (col < first_artificial_) {
        pivot(i, col);
      }
      // If the row is zero across structural columns it is redundant; the
      // artificial stays basic at zero and its column is forbidden in
      // phase 2, which is harmless.
    }
  }

  const DenseLp<T>* lp_ = nullptr;
  std::vector<T> tab_;  ///< rows_ x stride_, row-major
  std::size_t rows_ = 0;
  std::size_t width_ = 0;   ///< tableau columns in use
  std::size_t stride_ = 0;  ///< width_, padded for the double kernels
  std::vector<T> rhs_;
  std::vector<T> reduced_;  ///< stride_ entries, like a tableau row
  std::vector<std::size_t> basis_;
  T objective_value_{};
  std::size_t first_artificial_ = 0;
  bool has_artificials_ = false;
  std::size_t pivots_ = 0;
};

}  // namespace dlsched::lp
