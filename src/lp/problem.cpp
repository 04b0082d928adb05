#include "lp/problem.hpp"

#include <span>
#include <sstream>

#include "util/error.hpp"

namespace dlsched::lp {

std::size_t LpProblem::add_variable(std::string name) {
  var_names_.push_back(std::move(name));
  objective_.emplace_back();
  return var_names_.size() - 1;
}

void LpProblem::set_objective(std::size_t var, Rational coef) {
  DLSCHED_EXPECT(var < objective_.size(), "objective: unknown variable");
  objective_[var] = std::move(coef);
}

std::size_t LpProblem::add_constraint(std::vector<Term> terms,
                                      Relation relation, Rational rhs,
                                      std::string name) {
  for (const Term& t : terms) {
    DLSCHED_EXPECT(t.var < var_names_.size(), "constraint: unknown variable");
  }
  rows_.push_back(Row{std::move(terms), relation, std::move(rhs),
                      std::move(name)});
  return rows_.size() - 1;
}

Rational LpProblem::row_slack(std::size_t row,
                              const std::vector<Rational>& values) const {
  DLSCHED_EXPECT(row < rows_.size(), "constraint index out of range");
  DLSCHED_EXPECT(values.size() == var_names_.size(),
                 "row_slack: values must cover every variable");
  Rational activity;
  for (const Term& t : rows_[row].terms) {
    if (values[t.var].is_zero()) continue;
    activity += t.coef * values[t.var];
  }
  return rows_[row].rhs - activity;
}

namespace {
template <class T>
T convert(const Rational& value) {
  if constexpr (std::is_same_v<T, Rational>) {
    return value;
  } else {
    return value.to_double();
  }
}
}  // namespace

template <class T>
DenseLp<T> LpProblem::densify() const {
  DenseLp<T> dense;
  dense.num_vars = var_names_.size();
  dense.objective.resize(dense.num_vars);
  for (std::size_t j = 0; j < dense.num_vars; ++j) {
    dense.objective[j] = convert<T>(objective_[j]);
  }
  dense.coefficients.assign(rows_.size() * dense.num_vars, T{});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const std::span<T> coefficients = dense.row(i);
    for (const Term& t : rows_[i].terms) {
      coefficients[t.var] += convert<T>(t.coef);
    }
    dense.relations.push_back(rows_[i].relation);
    dense.rhs.push_back(convert<T>(rows_[i].rhs));
  }
  return dense;
}

template DenseLp<Rational> LpProblem::densify<Rational>() const;
template DenseLp<double> LpProblem::densify<double>() const;

Solution<Rational> LpProblem::solve_exact(ExactEngine engine) const {
  const DenseLp<Rational> dense = densify<Rational>();
  if (engine == ExactEngine::Bareiss) {
    BareissSimplex solver(dense);
    return solver.solve();
  }
  Simplex<Rational> solver(dense);
  return solver.solve();
}

Solution<double> LpProblem::solve_double() const {
  const DenseLp<double> dense = densify<double>();
  Simplex<double> solver(dense);
  return solver.solve();
}

std::string LpProblem::to_text() const {
  std::ostringstream out;
  out << "maximize ";
  bool first = true;
  for (std::size_t j = 0; j < objective_.size(); ++j) {
    if (objective_[j].is_zero()) continue;
    if (!first) out << " + ";
    out << objective_[j] << "*" << var_names_[j];
    first = false;
  }
  out << "\nsubject to\n";
  for (const Row& row : rows_) {
    out << "  ";
    if (!row.name.empty()) out << row.name << ": ";
    for (std::size_t k = 0; k < row.terms.size(); ++k) {
      if (k > 0) out << " + ";
      out << row.terms[k].coef << "*" << var_names_[row.terms[k].var];
    }
    switch (row.relation) {
      case Relation::LessEq: out << " <= "; break;
      case Relation::GreaterEq: out << " >= "; break;
      case Relation::Equal: out << " == "; break;
    }
    out << row.rhs << '\n';
  }
  out << "  all variables >= 0\n";
  return out.str();
}

}  // namespace dlsched::lp
