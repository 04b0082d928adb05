// Modelling layer over the simplex: named variables, sparse rows, exact
// rational coefficients, and solvers in both exact and double arithmetic.
//
// This replaces the `lp_solve` binding used by the paper (reference [9]):
// the LPs of Section 2.3 are built through this API by src/core.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lp/bareiss.hpp"
#include "lp/simplex.hpp"
#include "numeric/rational.hpp"

namespace dlsched::lp {

using numeric::Rational;

/// One sparse coefficient.
struct Term {
  std::size_t var = 0;
  Rational coef;
};

/// A maximization LP over non-negative variables with named rows/columns.
class LpProblem {
 public:
  /// Adds a non-negative variable; returns its index.
  std::size_t add_variable(std::string name);

  /// Sets (overwrites) a variable's objective coefficient.
  void set_objective(std::size_t var, Rational coef);

  /// Adds a sparse constraint row; duplicate `var` entries are summed.
  /// Returns the row index.
  std::size_t add_constraint(std::vector<Term> terms, Relation relation,
                             Rational rhs, std::string name = "");

  [[nodiscard]] std::size_t num_variables() const noexcept {
    return var_names_.size();
  }
  [[nodiscard]] std::size_t num_constraints() const noexcept {
    return rows_.size();
  }

  /// Exact slack `rhs - sum(terms * values)` of one row at a solution
  /// point (zero for a binding or equality row).  Solves do not report
  /// row slacks; tests recompute them from `values` with this, e.g. the
  /// paper's idle variables x_i (the slacks of the scenario LP's chain
  /// rows) in the exact Lemma 1 check.
  [[nodiscard]] Rational row_slack(std::size_t row,
                                   const std::vector<Rational>& values) const;

  /// Exact solve (Bland's rule; always terminates).  Both engines return
  /// the same status, objective, values and pivots; Bareiss skips the
  /// per-entry gcd reductions, and only the Rational engine fills `basis`.
  [[nodiscard]] Solution<Rational> solve_exact(
      ExactEngine engine = ExactEngine::Bareiss) const;
  /// Approximate solve over doubles (same algorithm, tolerance 1e-9).
  [[nodiscard]] Solution<double> solve_double() const;

  /// Renders the model in LP-ish text form (debugging / examples).
  [[nodiscard]] std::string to_text() const;

  /// The dense instance the solvers run on: `T` is Rational or double.
  /// The double form rounds each exact coefficient and right-hand side
  /// with `Rational::to_double` and sums a row's duplicate terms in double
  /// from 0.0, in term order (the rule `build_scenario_lp_double` matches).
  template <class T>
  [[nodiscard]] DenseLp<T> densify() const;

 private:
  struct Row {
    std::vector<Term> terms;
    Relation relation = Relation::LessEq;
    Rational rhs;
    std::string name;
  };

  std::vector<std::string> var_names_;
  std::vector<Rational> objective_;
  std::vector<Row> rows_;
};

}  // namespace dlsched::lp
