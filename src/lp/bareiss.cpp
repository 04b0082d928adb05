#include "lp/bareiss.hpp"

#include <span>
#include <utility>

#include "util/error.hpp"

namespace dlsched::lp {

using numeric::BigInt;
using numeric::Rational;

namespace {

/// lcm(a, b) for positive BigInts.
BigInt lcm(const BigInt& a, const BigInt& b) {
  return a / BigInt::gcd(a, b) * b;
}

/// numerator / denominator, asserting the division is exact.
BigInt exact_div(const BigInt& numerator, const BigInt& denominator) {
  if (denominator.is_one()) return numerator;
  BigInt quotient;
  BigInt remainder;
  BigInt::divmod(numerator, denominator, quotient, remainder);
  DLSCHED_EXPECT(remainder.is_zero(), "bareiss: scaling division not exact");
  return quotient;
}

/// value * (scale / value.den()) -- exact because value.den() | scale.
BigInt scale_to_integer(const Rational& value, const BigInt& scale) {
  return value.num() * exact_div(scale, value.den());
}

}  // namespace

BareissSimplex::BareissSimplex(const DenseLp<Rational>& lp) : lp_(lp) {
  DLSCHED_EXPECT(lp.objective.size() == lp.num_vars,
                 "objective width does not match variable count");
}

Solution<Rational> BareissSimplex::solve() {
  pivots_ = 0;
  build_tableau();
  Solution<Rational> out;
  if (has_artificials_) {
    run_phase(/*phase1=*/true);
    if (objective_num_.is_negative()) {
      out.status = Status::Infeasible;
      out.pivots = pivots_;
      return out;
    }
    expel_basic_artificials();
  }
  const bool bounded = run_phase(/*phase1=*/false);
  if (!bounded) {
    out.status = Status::Unbounded;
    out.pivots = pivots_;
    return out;
  }
  return extract_optimal();
}

Solution<Rational> BareissSimplex::extract_optimal() {
  Solution<Rational> out;
  out.status = Status::Optimal;
  out.pivots = pivots_;
  out.objective = Rational(objective_num_, s_obj_ * d0_ * den_);
  out.values.assign(lp_.num_vars, Rational{});
  for (std::size_t i = 0; i < basis_.size(); ++i) {
    if (basis_[i] < lp_.num_vars) {
      // Rows that have hosted a pivot carry scale `den`; rows that never
      // pivoted still carry the initial factor `d0` on top.
      out.values[basis_[i]] =
          Rational(rhs_[i], pivoted_rows_[i] ? den_ : d0_ * den_);
    }
  }
  return out;
}

void BareissSimplex::build_tableau() {
  const std::size_t m = lp_.num_rows();
  std::size_t extra = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (lp_.relations[i] != Relation::Equal) ++extra;
  }
  std::vector<int> flip(m, 1);
  std::vector<Relation> rel = lp_.relations;
  for (std::size_t i = 0; i < m; ++i) {
    if (lp_.rhs[i].is_negative()) {
      flip[i] = -1;
      if (rel[i] == Relation::LessEq) rel[i] = Relation::GreaterEq;
      else if (rel[i] == Relation::GreaterEq) rel[i] = Relation::LessEq;
    }
  }
  std::size_t num_art = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (rel[i] != Relation::LessEq) ++num_art;
  }
  has_artificials_ = num_art > 0;

  // d0 clears every denominator of the rational input in one global
  // scale; slack/artificial entries are +-1 and contribute nothing.
  d0_ = 1;
  for (std::size_t i = 0; i < m; ++i) {
    for (const Rational& coefficient : lp_.row(i)) {
      if (!coefficient.is_zero()) d0_ = lcm(d0_, coefficient.den());
    }
    if (!lp_.rhs[i].is_zero()) d0_ = lcm(d0_, lp_.rhs[i].den());
  }
  den_ = 1;

  const std::size_t total = lp_.num_vars + extra + num_art;
  first_artificial_ = lp_.num_vars + extra;
  tab_.assign(m, std::vector<BigInt>(total, BigInt{}));
  rhs_.resize(m);
  basis_.assign(m, 0);
  forbidden_.assign(total, false);
  pivoted_rows_.assign(m, false);

  std::size_t next_extra = lp_.num_vars;
  std::size_t next_art = first_artificial_;
  for (std::size_t i = 0; i < m; ++i) {
    const std::span<const Rational> source = lp_.row(i);
    for (std::size_t j = 0; j < lp_.num_vars; ++j) {
      if (source[j].is_zero()) continue;
      BigInt cell = scale_to_integer(source[j], d0_);
      if (flip[i] < 0) cell.negate();
      tab_[i][j] = std::move(cell);
    }
    rhs_[i] = scale_to_integer(lp_.rhs[i], d0_);
    if (flip[i] < 0) rhs_[i].negate();
    switch (rel[i]) {
      case Relation::LessEq:
        tab_[i][next_extra] = d0_;
        basis_[i] = next_extra++;
        break;
      case Relation::GreaterEq:
        tab_[i][next_extra] = -d0_;
        ++next_extra;
        tab_[i][next_art] = d0_;
        basis_[i] = next_art++;
        break;
      case Relation::Equal:
        tab_[i][next_art] = d0_;
        basis_[i] = next_art++;
        break;
    }
  }
}

void BareissSimplex::load_objective(bool phase1) {
  const std::size_t total = forbidden_.size();
  // Integer objective scale: phase-1 costs are 0/-1 already; phase 2
  // clears the rational objective's denominators.
  s_obj_ = 1;
  if (!phase1) {
    for (const Rational& c : lp_.objective) {
      if (!c.is_zero()) s_obj_ = lcm(s_obj_, c.den());
    }
  }
  // Scaled cost of a column: s_obj * cost, an exact integer.
  auto cost_of = [&](std::size_t var) -> BigInt {
    if (phase1) {
      return var >= first_artificial_ ? BigInt(-1) : BigInt{};
    }
    if (var >= lp_.num_vars || lp_.objective[var].is_zero()) return BigInt{};
    return scale_to_integer(lp_.objective[var], s_obj_);
  };
  // R_j = s_obj*cost_j * (d0*den) - sum_i w_i * N_ij with w_i the basic
  // cost rescaled to row i's denominator, so that R_j equals
  // s_obj*d0*den times the true reduced cost.
  const BigInt full_scale = d0_ * den_;
  reduced_.assign(total, BigInt{});
  for (std::size_t j = 0; j < total; ++j) {
    const BigInt cj = cost_of(j);
    if (!cj.is_zero()) reduced_[j] = cj * full_scale;
  }
  objective_num_ = BigInt{};
  for (std::size_t i = 0; i < basis_.size(); ++i) {
    BigInt w = cost_of(basis_[i]);
    if (w.is_zero()) continue;
    // A pivoted row's entries are den * (true value); a virgin row's are
    // d0 * den * (true value).  Align the weight accordingly.
    if (pivoted_rows_[i]) w *= d0_;
    const std::vector<BigInt>& row = tab_[i];
    for (std::size_t j = 0; j < total; ++j) {
      if (row[j].is_zero()) continue;
      reduced_[j] -= w * row[j];
    }
    objective_num_ += w * rhs_[i];
  }
}

bool BareissSimplex::run_phase(bool phase1) {
  load_objective(phase1);
  if (!phase1) {
    for (std::size_t j = first_artificial_; j < forbidden_.size(); ++j) {
      forbidden_[j] = true;
    }
  }
  const std::size_t iteration_cap =
      10000 * (tab_.size() + forbidden_.size() + 1);
  for (std::size_t iter = 0; iter < iteration_cap; ++iter) {
    // Bland: entering column = smallest index with positive reduced cost
    // (signs agree with the rational engine because all scales are > 0).
    std::size_t entering = reduced_.size();
    for (std::size_t j = 0; j < reduced_.size(); ++j) {
      if (!forbidden_[j] && reduced_[j].is_positive()) {
        entering = j;
        break;
      }
    }
    if (entering == reduced_.size()) return true;

    // Ratio test with Bland tie-break, by cross-multiplication: the row
    // scale cancels inside r_i / N_ic, so r_i * N_lc  <  r_l * N_ic
    // decides exactly the comparison Simplex<Rational> makes on ratios.
    std::size_t leaving = tab_.size();
    for (std::size_t i = 0; i < tab_.size(); ++i) {
      const BigInt& coeff = tab_[i][entering];
      if (!coeff.is_positive()) continue;
      if (leaving == tab_.size()) {
        leaving = i;
        continue;
      }
      const BigInt lhs = rhs_[i] * tab_[leaving][entering];
      const BigInt rhs = rhs_[leaving] * coeff;
      const int cmp = lhs.compare(rhs);
      if (cmp < 0 || (cmp == 0 && basis_[i] < basis_[leaving])) {
        leaving = i;
      }
    }
    if (leaving == tab_.size()) return false;  // unbounded direction
    pivot(leaving, entering, /*update_objective_row=*/true);
  }
  DLSCHED_FAIL("simplex iteration cap exceeded (cycling?)");
}

void BareissSimplex::pivot(std::size_t row, std::size_t col,
                           bool update_objective_row) {
  ++pivots_;
  std::vector<BigInt>& prow = tab_[row];
  const BigInt p = prow[col];
  const BigInt& rrhs = rhs_[row];
  for (std::size_t i = 0; i < tab_.size(); ++i) {
    if (i == row) continue;
    std::vector<BigInt>& trow = tab_[i];
    const BigInt factor = std::move(trow[col]);
    const bool factor_zero = factor.is_zero();
    for (std::size_t j = 0; j < trow.size(); ++j) {
      if (j == col) continue;
      BigInt& cell = trow[j];
      const BigInt& pv = prow[j];
      if (cell.is_zero() && (factor_zero || pv.is_zero())) continue;  // stays 0
      BigInt::fraction_free_update(cell, p, factor, pv, den_);
    }
    BigInt::fraction_free_update(rhs_[i], p, factor, rrhs, den_);
    trow[col] = BigInt{};
  }
  if (update_objective_row) {
    // Same identity on the reduced-cost row and the objective corner; a
    // zero entering cost still forces the p/den rescale (the tableau-wide
    // denominator changes even when the true reduced costs do not).
    BigInt rfactor = std::move(reduced_[col]);
    const bool rzero = rfactor.is_zero();
    for (std::size_t j = 0; j < reduced_.size(); ++j) {
      if (j == col) continue;
      BigInt& cell = reduced_[j];
      const BigInt& pv = prow[j];
      if (cell.is_zero() && (rzero || pv.is_zero())) continue;
      BigInt::fraction_free_update(cell, p, rfactor, pv, den_);
    }
    reduced_[col] = BigInt{};
    // The corner adds the product: objective = sum_i w_i * r_i while
    // R_j = c_j - sum_i w_i * N_ij.
    rfactor.negate();
    BigInt::fraction_free_update(objective_num_, p, rfactor, rrhs, den_);
  }
  basis_[row] = col;
  pivoted_rows_[row] = true;
  den_ = p;
  if (den_.is_negative()) {
    // Expelling an artificial may pivot on a negative entry.  Negate the
    // whole scaled system so every row scale (and den) stays positive and
    // sign tests keep mirroring the rational tableau.
    den_.negate();
    for (std::vector<BigInt>& trow : tab_) {
      for (BigInt& cell : trow) cell.negate();
    }
    for (BigInt& r : rhs_) r.negate();
    if (update_objective_row) {
      for (BigInt& r : reduced_) r.negate();
      objective_num_.negate();
    }
  }
}

void BareissSimplex::expel_basic_artificials() {
  for (std::size_t i = 0; i < basis_.size(); ++i) {
    if (basis_[i] < first_artificial_) continue;
    std::size_t col = first_artificial_;
    for (std::size_t j = 0; j < first_artificial_; ++j) {
      if (!tab_[i][j].is_zero()) {
        col = j;
        break;
      }
    }
    if (col < first_artificial_) {
      // The stale phase-1 objective row is reloaded by phase 2; skip its
      // update so the exactness invariant only ever sees live rows.
      pivot(i, col, /*update_objective_row=*/false);
    }
  }
}

}  // namespace dlsched::lp
