#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/scenario_lp.hpp"
#include "lp/certificate.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "numeric/rational.hpp"
#include "platform/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlsched::lp {
namespace {

using numeric::Rational;

Rational rat(std::int64_t n, std::int64_t d = 1) { return Rational(n, d); }

// ------------------------------------------------------------ known LPs --

TEST(Simplex, TextbookTwoVariableMaximum) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2, 6).
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(3));
  p.set_objective(y, rat(5));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(4));
  p.add_constraint({{y, rat(2)}}, Relation::LessEq, rat(12));
  p.add_constraint({{x, rat(3)}, {y, rat(2)}}, Relation::LessEq, rat(18));

  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(36));
  EXPECT_EQ(sol.values[x], rat(2));
  EXPECT_EQ(sol.values[y], rat(6));
}

TEST(Simplex, DoubleSolverAgreesWithExact) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(3));
  p.set_objective(y, rat(5));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(4));
  p.add_constraint({{y, rat(2)}}, Relation::LessEq, rat(12));
  p.add_constraint({{x, rat(3)}, {y, rat(2)}}, Relation::LessEq, rat(18));
  const auto sol = p.solve_double();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-9);
}

TEST(Simplex, FractionalOptimumIsExact) {
  // max x + y  s.t. 3x + y <= 2, x + 3y <= 2  ->  1 at (1/2, 1/2).
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.set_objective(y, rat(1));
  p.add_constraint({{x, rat(3)}, {y, rat(1)}}, Relation::LessEq, rat(2));
  p.add_constraint({{x, rat(1)}, {y, rat(3)}}, Relation::LessEq, rat(2));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(1));
  EXPECT_EQ(sol.values[x], rat(1, 2));
  EXPECT_EQ(sol.values[y], rat(1, 2));
}

TEST(Simplex, GreaterEqualConstraintsUsePhase1) {
  // max -x (i.e. minimize x)  s.t. x >= 3  ->  -3 at x = 3.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(-1));
  p.add_constraint({{x, rat(1)}}, Relation::GreaterEq, rat(3));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(-3));
  EXPECT_EQ(sol.values[x], rat(3));
}

TEST(Simplex, EqualityConstraint) {
  // max x + 2y  s.t. x + y == 5, x <= 3  ->  x=0? no: max prefers y: y=5,
  // x=0 -> 10.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.set_objective(y, rat(2));
  p.add_constraint({{x, rat(1)}, {y, rat(1)}}, Relation::Equal, rat(5));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(3));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(10));
  EXPECT_EQ(sol.values[y], rat(5));
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot hold.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(1));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(1));
  p.add_constraint({{x, rat(1)}}, Relation::GreaterEq, rat(2));
  EXPECT_EQ(p.solve_exact().status, Status::Infeasible);
  EXPECT_EQ(p.solve_double().status, Status::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(1));
  p.add_constraint({{x, rat(-1)}}, Relation::LessEq, rat(5));
  EXPECT_EQ(p.solve_exact().status, Status::Unbounded);
  EXPECT_EQ(p.solve_double().status, Status::Unbounded);
}

TEST(Simplex, NegativeRhsRowIsFlipped) {
  // -x <= -2 is x >= 2; max -x -> -2.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(-1));
  p.add_constraint({{x, rat(-1)}}, Relation::LessEq, rat(-2));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.values[x], rat(2));
}

TEST(Simplex, DegenerateVertexTerminates) {
  // Classic degeneracy: several constraints meet at the optimum; Bland's
  // rule must still terminate.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.set_objective(y, rat(1));
  p.add_constraint({{x, rat(1)}, {y, rat(1)}}, Relation::LessEq, rat(1));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(1));
  p.add_constraint({{y, rat(1)}}, Relation::LessEq, rat(1));
  p.add_constraint({{x, rat(2)}, {y, rat(2)}}, Relation::LessEq, rat(2));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(1));
}

TEST(Simplex, BealeCyclingExampleTerminates) {
  // Beale's classic example cycles forever under Dantzig's most-negative
  // rule; Bland's rule must terminate at the optimum 0.05.
  //   max 0.75 x1 - 150 x2 + 0.02 x3 - 6 x4
  //   s.t. 0.25 x1 - 60 x2 - 0.04 x3 + 9 x4 <= 0
  //        0.50 x1 - 90 x2 - 0.02 x3 + 3 x4 <= 0
  //        x3 <= 1
  LpProblem p;
  const std::size_t x1 = p.add_variable("x1");
  const std::size_t x2 = p.add_variable("x2");
  const std::size_t x3 = p.add_variable("x3");
  const std::size_t x4 = p.add_variable("x4");
  p.set_objective(x1, rat(3, 4));
  p.set_objective(x2, rat(-150));
  p.set_objective(x3, rat(1, 50));
  p.set_objective(x4, rat(-6));
  p.add_constraint({{x1, rat(1, 4)}, {x2, rat(-60)}, {x3, rat(-1, 25)},
                    {x4, rat(9)}},
                   Relation::LessEq, rat(0));
  p.add_constraint({{x1, rat(1, 2)}, {x2, rat(-90)}, {x3, rat(-1, 50)},
                    {x4, rat(3)}},
                   Relation::LessEq, rat(0));
  p.add_constraint({{x3, rat(1)}}, Relation::LessEq, rat(1));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(1, 20));
}

TEST(Simplex, ZeroObjectiveIsFeasibilityCheck) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(1));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(0));
}

TEST(Simplex, RowSlackIsZeroOnBindingRows) {
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(1));
  const std::size_t binding =
      p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(4));
  const std::size_t slack =
      p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(9));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(p.row_slack(binding, sol.values), rat(0));
  EXPECT_EQ(p.row_slack(slack, sol.values), rat(5));
}

TEST(Simplex, DuplicateTermsAreSummed) {
  // x + x <= 4 is 2x <= 4.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  p.set_objective(x, rat(1));
  p.add_constraint({{x, rat(1)}, {x, rat(1)}}, Relation::LessEq, rat(4));
  const auto sol = p.solve_exact();
  EXPECT_EQ(sol.values[x], rat(2));
}

TEST(Simplex, RedundantEqualityRowsHandled) {
  // x + y == 2 stated twice: phase 1 leaves one artificial basic at zero.
  LpProblem p;
  const std::size_t x = p.add_variable("x");
  const std::size_t y = p.add_variable("y");
  p.set_objective(x, rat(1));
  p.add_constraint({{x, rat(1)}, {y, rat(1)}}, Relation::Equal, rat(2));
  p.add_constraint({{x, rat(1)}, {y, rat(1)}}, Relation::Equal, rat(2));
  const auto sol = p.solve_exact();
  ASSERT_EQ(sol.status, Status::Optimal);
  EXPECT_EQ(sol.objective, rat(2));
}

TEST(Simplex, ModelTextRendersAllParts) {
  LpProblem p;
  const std::size_t x = p.add_variable("width");
  p.set_objective(x, rat(2));
  p.add_constraint({{x, rat(1)}}, Relation::LessEq, rat(7), "cap");
  const std::string text = p.to_text();
  EXPECT_NE(text.find("width"), std::string::npos);
  EXPECT_NE(text.find("cap"), std::string::npos);
  EXPECT_NE(text.find("<= 7"), std::string::npos);
}

TEST(Simplex, RejectsUnknownVariable) {
  LpProblem p;
  (void)p.add_variable("x");
  EXPECT_THROW(p.add_constraint({{5, rat(1)}}, Relation::LessEq, rat(1)),
               dlsched::Error);
  EXPECT_THROW(p.set_objective(9, rat(1)), dlsched::Error);
}

// --------------------------------------------- randomized cross-validation --

class SimplexRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomized, ExactAndDoubleAgreeOnRandomPackingLps) {
  // Random LPs in the shape of the scheduling LPs: all-positive rows,
  // rhs 1, maximize the sum.  Always feasible and bounded.
  Rng rng(GetParam());
  for (int instance = 0; instance < 10; ++instance) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    LpProblem p;
    for (std::size_t j = 0; j < n; ++j) {
      p.set_objective(p.add_variable("v" + std::to_string(j)), rat(1));
    }
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<Term> terms;
      for (std::size_t j = 0; j < n; ++j) {
        const std::int64_t numerator = rng.uniform_int(0, 8);
        if (numerator > 0) terms.push_back({j, rat(numerator, 4)});
      }
      if (terms.empty()) terms.push_back({0, rat(1)});
      p.add_constraint(std::move(terms), Relation::LessEq, rat(1));
    }
    // Keep the LP bounded: cap the sum of variables.
    {
      std::vector<Term> cap;
      for (std::size_t j = 0; j < n; ++j) cap.push_back({j, rat(1, 8)});
      p.add_constraint(std::move(cap), Relation::LessEq, rat(1));
    }
    const auto exact = p.solve_exact();
    const auto approx = p.solve_double();
    ASSERT_EQ(exact.status, Status::Optimal);
    ASSERT_EQ(approx.status, Status::Optimal);
    EXPECT_NEAR(exact.objective.to_double(), approx.objective, 1e-7);
    // The exact primal solution must satisfy every row exactly.
    for (std::size_t i = 0; i < p.num_constraints(); ++i) {
      EXPECT_GE(p.row_slack(i, exact.values), rat(0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomized,
                         ::testing::Values(101u, 202u, 303u, 404u));

// ------------------------------------------------ the double engine's pin --

/// Folds `word` into the running digest `h`.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Everything a double solve returns: status, objective and value bits,
/// the basis and the pivot count.
std::uint64_t fold_solution(std::uint64_t h, const Solution<double>& s) {
  h = fold(h, static_cast<std::uint64_t>(s.status));
  h = fold(h, std::bit_cast<std::uint64_t>(s.objective));
  for (const double v : s.values) h = fold(h, std::bit_cast<std::uint64_t>(v));
  for (const std::size_t b : s.basic_structurals) h = fold(h, b);
  return fold(h, s.pivots);
}

/// The LP variants of each scenario: both port models, with no latencies,
/// the scalar latencies, latencies large enough to make most scenarios
/// infeasible (phase 1 runs and fails), and per-worker latencies.
std::vector<dlsched::LpOptions> pin_variants(std::size_t p, Rng& rng) {
  dlsched::LpOptions scalar;
  scalar.send_latency = 0.002;
  scalar.compute_latency = 0.01;
  scalar.return_latency = 0.0013;
  dlsched::LpOptions infeasible;
  infeasible.send_latency = 0.15;
  infeasible.compute_latency = 0.3;
  infeasible.return_latency = 0.1;
  dlsched::LpOptions per_worker;
  per_worker.compute_latency = 0.004;
  for (std::size_t i = 0; i < p; ++i) {
    const double f = rng.uniform(0.2, 3.0);
    per_worker.send_latencies.push_back(0.003 * f);
    per_worker.return_latencies.push_back(0.0017 * f);
  }
  std::vector<dlsched::LpOptions> variants;
  for (const bool one_port : {true, false}) {
    for (dlsched::LpOptions options :
         {dlsched::LpOptions{}, scalar, infeasible, per_worker}) {
      options.one_port = one_port;
      variants.push_back(std::move(options));
    }
  }
  return variants;
}

/// A small LP with <=, >= and = rows.  Zero right-hand sides and repeated
/// equality rows leave artificials basic at zero after phase 1, which the
/// expulsion step then pivots out or leaves on a redundant row.
DenseLp<double> mixed_lp(Rng& rng) {
  DenseLp<double> lp;
  lp.num_vars = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    lp.objective.push_back(static_cast<double>(rng.uniform_int(-1, 4)));
  }
  const auto row = [&] {
    std::vector<double> coefficients;
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      coefficients.push_back(static_cast<double>(rng.uniform_int(0, 6)) / 4);
    }
    return coefficients;
  };
  const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t i = 0; i < m; ++i) {
    const auto relation = static_cast<Relation>(rng.uniform_int(0, 2));
    const double rhs = static_cast<double>(rng.uniform_int(-1, 3)) / 2;
    std::vector<double> coefficients = row();
    if (relation == Relation::Equal && rng.uniform_int(0, 1) == 1) {
      lp.add_row(coefficients, relation, rhs);
    }
    lp.add_row(std::move(coefficients), relation, rhs);
  }
  lp.add_row(std::vector<double>(lp.num_vars, 0.125), Relation::LessEq, 1.0);
  return lp;
}

TEST(SimplexDoublePin, SolvesEveryLpToThePinnedBits) {
  // The double engine's status, objective and value bits, basis and pivot
  // counts over scenario LPs of every generator family (p 1-12, z 0.35 and
  // 2.5; FIFO, LIFO, general and random-subset scenarios; both port
  // models; no, scalar, infeasible and per-worker latencies), cold and
  // warm-started from the cold basis, plus 2,000 mixed-relation LPs that
  // run phase 1 and expel artificials.  The digest was recorded with the
  // pivot that still tested every entry for zero.
  const gen::GeneratorRegistry& registry = gen::GeneratorRegistry::instance();
  Rng rng(2020);
  std::uint64_t digest = 0;
  std::size_t lps = 0;
  std::size_t infeasible = 0;
  for (const gen::GeneratorInfo& info : registry.infos()) {
    const auto accepts = [&](const std::string& key) {
      return std::find(info.params.begin(), info.params.end(), key) !=
             info.params.end();
    };
    for (std::size_t p = 1; p <= 12; ++p) {
      for (const double z : {0.35, 2.5}) {
        gen::GenParams params;
        if (accepts("p")) params["p"] = static_cast<double>(p);
        if (accepts("z")) params["z"] = z;
        if (accepts("z_num")) params["z_num"] = z < 1.0 ? 1.0 : 5.0;
        const StarPlatform platform =
            registry.make_generated(info.name, params, rng).platform;
        const std::size_t n = platform.size();
        const std::vector<std::size_t> order = rng.permutation(n);
        const std::vector<std::size_t> subset(
            order.begin(),
            order.begin() + rng.uniform_int(1, static_cast<std::int64_t>(n)));
        for (const Scenario& scenario :
             {Scenario::fifo(order), Scenario::lifo(order),
              Scenario::general(order, rng.permutation(n)),
              Scenario::fifo(subset)}) {
          for (const dlsched::LpOptions& options : pin_variants(n, rng)) {
            const DenseLp<double> lp =
                build_scenario_lp_double(platform, scenario, options);
            const Solution<double> cold = Simplex<double>(lp).solve();
            digest = fold_solution(digest, cold);
            infeasible += cold.status == Status::Infeasible;
            ++lps;
            if (cold.status != Status::Optimal) continue;
            digest = fold_solution(
                digest,
                Simplex<double>(lp).solve(WarmBasis{cold.basic_structurals}));
          }
        }
      }
    }
  }
  for (int i = 0; i < 2000; ++i) {
    digest = fold_solution(digest, Simplex<double>(mixed_lp(rng)).solve());
    ++lps;
  }
  EXPECT_EQ(lps, 10448u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_EQ(digest, 0xb2bc9f6f8472f7ecULL);
}

// ------------------------------------------- the optimal-basis certificate --

/// `rows` (each num_vars coefficients, then the right-hand side) as an
/// integer LP maximizing `objective`.
IntegerLp integer_lp(const std::vector<std::vector<std::int64_t>>& rows,
                     const std::vector<std::int64_t>& objective) {
  IntegerLp lp;
  lp.num_vars = objective.size();
  for (const std::int64_t c : objective) lp.objective.emplace_back(c);
  for (const std::vector<std::int64_t>& row : rows) {
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      lp.coefficients.emplace_back(row[j]);
    }
    lp.rhs.emplace_back(row[lp.num_vars]);
  }
  return lp;
}

/// The same LP as a Rational model, for the reference solves.
LpProblem rational_lp(const IntegerLp& lp) {
  LpProblem p;
  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    p.set_objective(p.add_variable("v" + std::to_string(j)),
                    Rational(lp.objective[j]));
  }
  for (std::size_t i = 0; i < lp.num_rows(); ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < lp.num_vars; ++j) {
      if (!lp.at(i, j).is_zero()) terms.push_back({j, Rational(lp.at(i, j))});
    }
    p.add_constraint(std::move(terms), Relation::LessEq, Rational(lp.rhs[i]));
  }
  return p;
}

bool certifies(const IntegerLp& lp, const std::vector<std::size_t>& basis) {
  BasisCertificate certificate;
  Solution<Rational> out;
  return certificate.certify(lp, basis, out);
}

TEST(BasisCertificate, CertifiesTheDoubleBasisOfAUniqueOptimum) {
  // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  ->  36 at (2, 6).
  const IntegerLp lp =
      integer_lp({{1, 0, 4}, {0, 2, 12}, {3, 2, 18}}, {3, 5});
  const Solution<double> approx = rational_lp(lp).solve_double();
  ASSERT_EQ(approx.status, Status::Optimal);
  ASSERT_EQ(approx.basis.size(), 3u);  // one column per row, slack included
  BasisCertificate certificate;
  Solution<Rational> out;
  ASSERT_TRUE(certificate.certify(lp, approx.basis, out));
  EXPECT_EQ(out.status, Status::Optimal);
  EXPECT_EQ(out.objective, rat(36));
  EXPECT_EQ(out.values, (std::vector<Rational>{rat(2), rat(6)}));
}

TEST(BasisCertificate, RejectsATiedOptimum) {
  // max x + y  s.t. x + y <= 1: every point of the edge is optimal, so the
  // nonbasic variable prices at exactly zero.
  const IntegerLp lp = integer_lp({{1, 1, 1}}, {1, 1});
  const Solution<double> approx = rational_lp(lp).solve_double();
  ASSERT_EQ(approx.status, Status::Optimal);
  EXPECT_FALSE(certifies(lp, approx.basis));
}

TEST(BasisCertificate, RejectsBasesThatAreNotOptimalFeasibleOrWellFormed) {
  const IntegerLp lp =
      integer_lp({{1, 0, 4}, {0, 2, 12}, {3, 2, 18}}, {3, 5});
  // Columns 0 and 1 are x and y, 2 + i the slack of row i.
  ASSERT_TRUE(certifies(lp, {2, 1, 0}));   // the optimal basis, any order
  EXPECT_FALSE(certifies(lp, {2, 3, 4}));  // the slack basis: not optimal
  EXPECT_FALSE(certifies(lp, {0, 1, 4}));  // x = 4, y = 6: 3x + 2y > 18
  EXPECT_FALSE(certifies(lp, {0, 1}));     // one column short
  EXPECT_FALSE(certifies(lp, {0, 1, 1}));  // a column twice
  EXPECT_FALSE(certifies(lp, {0, 1, 5}));  // an artificial (n + m = 5)
  // A singular basis system: two copies of one row.
  const IntegerLp twin = integer_lp({{1, 1, 2}, {1, 1, 2}}, {1, 2});
  EXPECT_FALSE(certifies(twin, {0, 1}));
}

TEST(BasisCertificate, RejectsABasicStructuralAtZero) {
  // max x + y  s.t. x + y <= 0, x + 2y <= 1: the only feasible point with
  // x + y = 0 on both axes is the origin, reached by a degenerate pivot
  // that leaves x basic at 0.
  const IntegerLp lp = integer_lp({{1, 1, 0}, {1, 2, 1}}, {1, 1});
  const Solution<double> approx = rational_lp(lp).solve_double();
  ASSERT_EQ(approx.status, Status::Optimal);
  EXPECT_EQ(approx.basic_structurals, (std::vector<std::size_t>{0}));
  EXPECT_FALSE(certifies(lp, approx.basis));
}

TEST(BasisCertificate, AgreesWithBareissOnRandomPackingLps) {
  // The randomized packing LPs above, in integers (coefficients in
  // quarters, so 4x every row): a certified basis must give the exact
  // optimum, and most of these optima are unique.
  Rng rng(2525);
  std::size_t certified = 0;
  for (int instance = 0; instance < 200; ++instance) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    std::vector<std::vector<std::int64_t>> rows;
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<std::int64_t> row;
      for (std::size_t j = 0; j < n; ++j) row.push_back(rng.uniform_int(0, 8));
      if (std::all_of(row.begin(), row.end(),
                      [](std::int64_t v) { return v == 0; })) {
        row[0] = 4;
      }
      row.push_back(4);
      rows.push_back(std::move(row));
    }
    rows.emplace_back(n, 1);  // the cap: sum / 8 <= 1, times 8
    rows.back().push_back(8);
    std::vector<std::int64_t> objective;
    for (std::size_t j = 0; j < n; ++j) {
      objective.push_back(rng.uniform_int(1, 5));
    }
    const IntegerLp lp = integer_lp(rows, objective);
    const LpProblem model = rational_lp(lp);
    const Solution<double> approx = model.solve_double();
    ASSERT_EQ(approx.status, Status::Optimal);
    BasisCertificate certificate;
    Solution<Rational> out;
    if (!certificate.certify(lp, approx.basis, out)) continue;
    ++certified;
    const Solution<Rational> exact = model.solve_exact();
    EXPECT_EQ(out.objective, exact.objective) << "instance " << instance;
    EXPECT_EQ(out.values, exact.values) << "instance " << instance;
  }
  EXPECT_GT(certified, 100u);
}

}  // namespace
}  // namespace dlsched::lp
