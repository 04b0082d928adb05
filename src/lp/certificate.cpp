#include "lp/certificate.hpp"

#include <utility>

namespace dlsched::lp {

using numeric::BigInt;
using numeric::Rational;

bool BasisCertificate::eliminate(std::size_t k, BigInt& det) {
  // Fraction-free Gauss-Jordan (Bareiss): pivoting on (r, c) updates every
  // other row by N'_ij = (N_ij * N_rc - N_ic * N_rj) / den, an exact
  // division, and leaves the pivot row as it is; den becomes N_rc.  Only
  // the columns right of c change: to the left, every row but a column's
  // own pivot row holds zeros, and a pivot row's diagonal entry is always
  // the latest pivot, so neither is stored.  After the last pivot each row
  // position i holds det * z_i in its last column, with det that pivot.
  order_.resize(k);
  for (std::size_t i = 0; i < k; ++i) order_[i] = i;
  det = BigInt(1);
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t pick = c;
    while (pick < k && cell(order_[pick], c).is_zero()) ++pick;
    if (pick == k) return false;  // singular basis
    std::swap(order_[c], order_[pick]);
    const std::size_t prow = order_[c];
    const BigInt& p = cell(prow, c);
    for (std::size_t i = 0; i < k; ++i) {
      if (i == c) continue;
      const std::size_t trow = order_[i];
      const BigInt& factor = cell(trow, c);
      const bool factor_zero = factor.is_zero();
      for (std::size_t j = c + 1; j <= k; ++j) {
        BigInt& target = cell(trow, j);
        const BigInt& pv = cell(prow, j);
        if (target.is_zero() && (factor_zero || pv.is_zero())) continue;
        BigInt::fraction_free_update(target, p, factor, pv, det);
      }
    }
    det = p;
  }
  if (det.is_negative()) {
    det.negate();
    for (std::size_t i = 0; i < k; ++i) cell(i, k).negate();
  }
  return true;
}

bool BasisCertificate::certify(const IntegerLp& lp,
                               std::span<const std::size_t> basis,
                               Solution<Rational>& out) {
  const std::size_t n = lp.num_vars;
  const std::size_t m = lp.num_rows();
  if (basis.size() != m) return false;
  basic_.assign(n + m, 0);
  structurals_.clear();
  for (const std::size_t col : basis) {
    if (col >= n + m || basic_[col] != 0) return false;  // artificial, repeat
    basic_[col] = 1;
    if (col < n) structurals_.push_back(col);
  }
  tight_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    if (basic_[n + i] == 0) tight_.push_back(i);
  }
  // m distinct columns: as many basic structurals as tight rows.
  const std::size_t k = structurals_.size();
  width_ = k + 1;
  aug_.resize(k * width_);
  const BigInt one(1);

  // Primal: B x_S = b_T with B = A[T, S].
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      cell(r, c) = lp.at(tight_[r], structurals_[c]);
    }
    cell(r, k) = lp.rhs[tight_[r]];
  }
  BigInt det;
  if (!eliminate(k, det)) return false;
  primal_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    primal_[i] = std::move(cell(order_[i], k));
    if (!primal_[i].is_positive()) return false;
  }
  // Every non-tight row holds: det * b_i - A_i,S . (det * x_S) >= 0.  With
  // no term the sign is b_i's, det being positive.
  for (std::size_t i = 0; i < m; ++i) {
    if (basic_[n + i] == 0) continue;
    acc_ = lp.rhs[i];
    const BigInt* scale = &det;
    for (std::size_t c = 0; c < k; ++c) {
      const BigInt& a = lp.at(i, structurals_[c]);
      if (a.is_zero()) continue;
      BigInt::fraction_free_update(acc_, *scale, a, primal_[c], one);
      scale = &one;
    }
    if (acc_.is_negative()) return false;
  }

  // Dual: B^T y_T = c_S.  Row r is structural S_r, column c tight row T_c.
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      cell(r, c) = lp.at(tight_[c], structurals_[r]);
    }
    cell(r, k) = lp.objective[structurals_[r]];
  }
  BigInt dual_det;
  if (!eliminate(k, dual_det)) return false;
  dual_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    dual_[i] = std::move(cell(order_[i], k));
    if (!dual_[i].is_positive()) return false;  // a tight slack prices >= 0
  }
  // Every nonbasic structural prices strictly below zero:
  // dual_det * c_j - A_T,j . (dual_det * y_T) < 0.
  for (std::size_t j = 0; j < n; ++j) {
    if (basic_[j] != 0) continue;
    acc_ = lp.objective[j];
    const BigInt* scale = &dual_det;
    for (std::size_t c = 0; c < k; ++c) {
      const BigInt& a = lp.at(tight_[c], j);
      if (a.is_zero()) continue;
      BigInt::fraction_free_update(acc_, *scale, a, dual_[c], one);
      scale = &one;
    }
    if (!acc_.is_negative()) return false;
  }

  // Certified: the unique optimum, in lowest terms.
  out.status = Status::Optimal;
  out.values.assign(n, Rational());
  acc_ = BigInt();
  for (std::size_t c = 0; c < k; ++c) {
    out.values[structurals_[c]] = Rational(primal_[c], det);
    BigInt::fraction_free_update(acc_, one, lp.objective[structurals_[c]],
                                 primal_[c], one);
  }
  acc_.negate();
  out.objective = Rational(acc_, det);
  return true;
}

}  // namespace dlsched::lp
