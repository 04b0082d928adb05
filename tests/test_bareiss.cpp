// Differential suite: BareissSimplex must be bit-identical to
// Simplex<Rational> -- same Status, objective, values and pivot count --
// across feasible, infeasible, unbounded and degenerate instances.  `Rational::operator==` compares numerator
// and denominator directly, so agreement here really is bit-exactness of
// the canonical forms, not value-level closeness.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lp/bareiss.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "numeric/rational.hpp"
#include "util/rng.hpp"

namespace dlsched::lp {
namespace {

using numeric::Rational;

Rational rat(std::int64_t n, std::int64_t d = 1) { return Rational(n, d); }

void expect_identical(const Solution<Rational>& bareiss,
                      const Solution<Rational>& rational) {
  ASSERT_EQ(bareiss.status, rational.status);
  EXPECT_EQ(bareiss.pivots, rational.pivots);
  if (bareiss.status != Status::Optimal) return;
  EXPECT_EQ(bareiss.objective, rational.objective);
  ASSERT_EQ(bareiss.values.size(), rational.values.size());
  for (std::size_t j = 0; j < rational.values.size(); ++j) {
    EXPECT_EQ(bareiss.values[j], rational.values[j]) << "value " << j;
  }
}

void expect_engines_agree(const DenseLp<Rational>& lp) {
  BareissSimplex bareiss(lp);
  Simplex<Rational> rational(lp);
  expect_identical(bareiss.solve(), rational.solve());
}

void expect_problem_engines_agree(const LpProblem& p) {
  expect_identical(p.solve_exact(ExactEngine::Bareiss),
                   p.solve_exact(ExactEngine::Rational));
}

// ---------------------------------------------------- structured cases --

TEST(Bareiss, TextbookMaximum) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(3));
  p.set_objective(y, rat(5));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(4));
  p.add_constraint({{y, rat(2)}}, Relation::LessEq, rat(12));
  p.add_constraint({{x, rat(3)}, {y, rat(2)}}, Relation::LessEq, rat(18));
  const auto sol = p.solve_exact(ExactEngine::Bareiss);
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(36));
  EXPECT_EQ(sol.values[x], rat(2));
  EXPECT_EQ(sol.values[y], rat(6));
  expect_problem_engines_agree(p);
}

TEST(Bareiss, FractionalDataExercisesTheGlobalScale) {
  // Non-trivial lcm of denominators (d0 = 12) plus a fractional rhs.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1, 3));
  p.set_objective(y, rat(1, 2));
  p.add_constraint({{x, rat(1, 2)}, {y, rat(1, 3)}}, Relation::LessEq,
                   rat(7, 4));
  p.add_constraint({{x, rat(1, 3)}, {y, rat(1, 2)}}, Relation::LessEq,
                   rat(3, 2));
  expect_problem_engines_agree(p);
}

TEST(Bareiss, EqualityAndSurplusRowsNeedPhaseOne) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.set_objective(y, rat(2));
  p.add_constraint({{x, rat(1)}, {y, rat(1)}}, Relation::Equal, rat(5));
  p.add_constraint({{x, rat(1)}}, Relation::GreaterEq, rat(1));
  p.add_constraint({{y, rat(1)}}, Relation::LessEq, rat(4));
  expect_problem_engines_agree(p);
}

TEST(Bareiss, InfeasibleSystem) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(1));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(1));
  p.add_constraint({{x, rat(1)}}, Relation::GreaterEq, rat(3));
  const auto sol = p.solve_exact(ExactEngine::Bareiss);
  EXPECT_EQ(sol.status, Status::Infeasible);
  expect_problem_engines_agree(p);
}

TEST(Bareiss, UnboundedDirection) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.set_objective(y, rat(1));
  p.add_constraint({{x, rat(1)}, {y, rat(-1)}}, Relation::LessEq, rat(1));
  const auto sol = p.solve_exact(ExactEngine::Bareiss);
  EXPECT_EQ(sol.status, Status::Unbounded);
  expect_problem_engines_agree(p);
}

TEST(Bareiss, NegativeRhsRowsAreFlipped) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(-1));
  p.set_objective(y, rat(-1));
  p.add_constraint({{x, rat(-1)}, {y, rat(-1)}}, Relation::LessEq, rat(-3));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(5));
  p.add_constraint({{y, rat(1)}}, Relation::LessEq, rat(5));
  expect_problem_engines_agree(p);
}

TEST(Bareiss, RedundantEqualityLeavesAnArtificialBasic) {
  // Duplicate equalities: phase 1 cannot expel one artificial (redundant
  // row), exercising the expel/forbidden path.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.set_objective(y, rat(1));
  p.add_constraint({{x, rat(1)}, {y, rat(1)}}, Relation::Equal, rat(4));
  p.add_constraint({{x, rat(2)}, {y, rat(2)}}, Relation::Equal, rat(8));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(3));
  expect_problem_engines_agree(p);
}

TEST(Bareiss, BealeDegenerateCycle) {
  // Beale's classical cycling example; Bland's rule terminates, and the
  // two engines must walk the same degenerate pivot sequence.
  DenseLp<Rational> lp;
  lp.num_vars = 4;
  lp.objective = {rat(3, 4), rat(-150), rat(1, 50), rat(-6)};
  lp.add_row({rat(1, 4), rat(-60), rat(-1, 25), rat(9)}, Relation::LessEq,
             rat(0));
  lp.add_row({rat(1, 2), rat(-90), rat(-1, 50), rat(3)}, Relation::LessEq,
             rat(0));
  lp.add_row({rat(0), rat(0), rat(1), rat(0)}, Relation::LessEq, rat(1));
  expect_engines_agree(lp);
}

TEST(Bareiss, RowFreeLpIsUnboundedUnderAPositiveObjective) {
  // No constraint holds x back.  With no rows there is no tableau row to
  // size the reduced-cost row by: each engine must still price every
  // column, or it calls this LP optimal at zero.
  DenseLp<Rational> lp;
  lp.num_vars = 2;
  lp.objective = {rat(-1), rat(2)};
  EXPECT_EQ(BareissSimplex(lp).solve().status, Status::Unbounded);
  expect_engines_agree(lp);
  lp.objective = {rat(-1), rat(0)};
  EXPECT_EQ(BareissSimplex(lp).solve().status, Status::Optimal);
  expect_engines_agree(lp);
}

// ---------------------------------------------------- randomized sweeps --

class BareissRandom : public ::testing::TestWithParam<std::uint64_t> {};

// Random packing LPs with double-derived coefficients: the exact shape the
// scenario LPs feed the engine (denominators are powers of two).
TEST_P(BareissRandom, PackingLpsFromDoubles) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 6));
    DenseLp<Rational> lp;
    lp.num_vars = n;
    lp.objective.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      lp.objective[j] = Rational::from_double(rng.uniform(0.1, 2.0));
    }
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<Rational> row(n);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = rng.uniform(0.0, 1.0) < 0.3
                     ? Rational{}
                     : Rational::from_double(rng.uniform(0.05, 1.5));
      }
      lp.add_row(std::move(row), Relation::LessEq,
                 Rational::from_double(rng.uniform(0.5, 3.0)));
    }
    expect_engines_agree(lp);
  }
}

// Mixed-relation instances with small-integer fractions: equalities and
// surplus rows force phase 1, and the status mix covers infeasible LPs.
TEST_P(BareissRandom, MixedRelationsWithFractions) {
  Rng rng(GetParam() ^ 0xb1a5);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 5));
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(2, 5));
    DenseLp<Rational> lp;
    lp.num_vars = n;
    lp.objective.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      lp.objective[j] =
          rat(rng.uniform_int(-4, 6), rng.uniform_int(1, 6));
    }
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<Rational> row(n);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = rat(rng.uniform_int(-3, 5), rng.uniform_int(1, 8));
      }
      const std::int64_t kind = rng.uniform_int(0, 5);
      const Relation relation = kind == 0   ? Relation::Equal
                                : kind <= 3 ? Relation::LessEq
                                            : Relation::GreaterEq;
      lp.add_row(std::move(row), relation,
                 rat(rng.uniform_int(-2, 8), rng.uniform_int(1, 4)));
    }
    expect_engines_agree(lp);
  }
}

// Degenerate vertices: many tight rows through the origin-adjacent corner
// make ties common, stressing the Bland tie-break replication.
TEST_P(BareissRandom, DegenerateTies) {
  Rng rng(GetParam() ^ 0xde9e);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 4));
    DenseLp<Rational> lp;
    lp.num_vars = n;
    lp.objective.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      lp.objective[j] = rat(rng.uniform_int(1, 3));
    }
    const std::size_t m = n + 2;
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<Rational> row(n);
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = rat(rng.uniform_int(0, 2));
      }
      // Shared rhs values produce coincident hyperplanes and tied ratios.
      lp.add_row(std::move(row), Relation::LessEq,
                 rat(rng.uniform_int(0, 1) == 0 ? 2 : 4));
    }
    expect_engines_agree(lp);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BareissRandom,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace dlsched::lp
