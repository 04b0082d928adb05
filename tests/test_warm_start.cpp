// Differential guarantee of the warm-started exact simplex: a seed may
// only change pivot counts, never the answer.  Every test solves the same
// LP cold and warm (both exact engines) and asserts bit-identical status,
// objective and values -- including across randomized platform
// perturbations, deliberately infeasible seeds, and the churn re-solve
// entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/churn.hpp"
#include "core/scenario_lp.hpp"
#include "lp/problem.hpp"
#include "numeric/limb_arena.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace dlsched {
namespace {

using lp::ExactEngine;
using numeric::Rational;

AffineCosts small_latencies() {
  AffineCosts costs;
  costs.send_latency = 0.01;
  costs.compute_latency = 0.002;
  costs.return_latency = 0.005;
  return costs;
}

/// Solves `problem` cold and warm with `seed` on one engine and asserts
/// the solution (status, objective, values) matches bit for bit.  Returns the warm accounting for further assertions.
lp::WarmInfo expect_warm_matches_cold(const lp::LpProblem& problem,
                                      const std::vector<std::size_t>& seed,
                                      ExactEngine engine) {
  const lp::Solution<Rational> cold = problem.solve_exact(engine);
  lp::WarmInfo info;
  const lp::Solution<Rational> warm =
      problem.solve_exact(engine, lp::WarmBasis{seed}, &info);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.objective, cold.objective);
  EXPECT_EQ(warm.values.size(), cold.values.size());
  for (std::size_t j = 0;
       j < std::min(warm.values.size(), cold.values.size()); ++j) {
    EXPECT_EQ(warm.values[j], cold.values[j]) << "value " << j;
  }
  return info;
}

// ---------------------------------------------------- optimal-basis seeds --

TEST(WarmStart, OwnOptimalBasisIsAcceptedOnBothEngines) {
  Rng rng(101);
  const StarPlatform platform = gen::random_star(6, rng, 0.5);
  const Scenario scenario = Scenario::fifo(platform.order_by_c());
  const lp::LpProblem problem = build_scenario_lp(platform, scenario);
  const lp::Solution<Rational> cold = problem.solve_exact();
  for (const ExactEngine engine :
       {ExactEngine::Bareiss, ExactEngine::Rational}) {
    const lp::WarmInfo info =
        expect_warm_matches_cold(problem, cold.basic_structurals, engine);
    EXPECT_TRUE(info.attempted);
    EXPECT_TRUE(info.crash_ok);
    EXPECT_TRUE(info.accepted);
  }
}

TEST(WarmStart, EnginesAgreeOnWarmPivotCounts) {
  // The Bareiss and gcd-reducing rational engines must stay
  // decision-identical on the warm path too (crash included).
  Rng rng(202);
  for (int iter = 0; iter < 8; ++iter) {
    const StarPlatform platform = gen::random_star(5, rng, 0.5);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    const lp::LpProblem problem =
        build_scenario_lp(platform, scenario, small_latencies().lp_options());
    const std::vector<std::size_t> seed =
        problem.solve_exact().basic_structurals;
    lp::WarmInfo info_b, info_r;
    const auto warm_b =
        problem.solve_exact(ExactEngine::Bareiss, lp::WarmBasis{seed},
                            &info_b);
    const auto warm_r =
        problem.solve_exact(ExactEngine::Rational, lp::WarmBasis{seed},
                            &info_r);
    EXPECT_EQ(warm_b.pivots, warm_r.pivots);
    EXPECT_EQ(info_b.accepted, info_r.accepted);
    EXPECT_EQ(info_b.crash_pivots, info_r.crash_pivots);
    EXPECT_EQ(warm_b.objective, warm_r.objective);
  }
}

// ------------------------------------------------- randomized perturbation --

TEST(WarmStart, PerturbedPlatformsNeverChangeTheAnswer) {
  // The grid / churn use case: seed the LP of a *perturbed* platform with
  // the unperturbed optimum's support.  Whatever the engines decide about
  // the seed (accept, reject as non-unique, or fail the crash), the
  // solution must be bit-identical to the cold one.
  Rng rng(303);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t p = 3 + static_cast<std::size_t>(iter % 4);
    StarPlatform base = gen::random_star(p, rng, 0.5);
    const Scenario scenario = Scenario::fifo(base.order_by_c());
    const LpOptions options =
        (iter % 2 == 0) ? LpOptions{} : small_latencies().lp_options();
    const ScenarioSolution parent = solve_scenario(base, scenario, options);

    // Perturb every cost by up to +-30%; the scenario (and thus the LP
    // shape) is kept, so the parent's basis is structurally valid.
    std::vector<Worker> workers(base.workers().begin(),
                                base.workers().end());
    for (Worker& w : workers) {
      w.c *= rng.uniform(0.7, 1.3);
      w.w *= rng.uniform(0.7, 1.3);
      w.d *= rng.uniform(0.7, 1.3);
    }
    const StarPlatform perturbed{std::move(workers)};
    const lp::LpProblem problem =
        build_scenario_lp(perturbed, scenario, options);
    const std::vector<std::size_t> seed =
        warm_basis_for(parent.alpha_double(), scenario);
    for (const ExactEngine engine :
         {ExactEngine::Bareiss, ExactEngine::Rational}) {
      expect_warm_matches_cold(problem, seed, engine);
    }
  }
}

TEST(WarmStart, SolveScenarioReportsAcceptedSeeds) {
  Rng rng(404);
  const StarPlatform platform = gen::random_star(6, rng, 0.5);
  const Scenario scenario = Scenario::fifo(platform.order_by_c());
  const ScenarioSolution cold = solve_scenario(platform, scenario);
  LpOptions warm_options;
  warm_options.warm_basis = warm_basis_for(cold.alpha_double(), scenario);
  const ScenarioSolution warm =
      solve_scenario(platform, scenario, warm_options);
  EXPECT_EQ(warm.lp_warm_starts, 1u);
  EXPECT_EQ(warm.throughput, cold.throughput);
  for (std::size_t i = 0; i < platform.size(); ++i) {
    EXPECT_EQ(warm.alpha[i], cold.alpha[i]);
  }
}

// ------------------------------------------------------- infeasible seeds --

TEST(WarmStart, InfeasibleSeedFallsBackCold) {
  // Two LPs over the same variables where the first optimum's vertex is
  // infeasible in the second: maximize x0 + x1 with generous bounds, then
  // shrink a bound far below the seeded vertex.  The crash must detect the
  // negative slack and fall back cold, bit-identically.
  lp::LpProblem generous;
  const std::size_t x0 = generous.add_variable("x0");
  const std::size_t x1 = generous.add_variable("x1");
  generous.set_objective(x0, Rational(1));
  generous.set_objective(x1, Rational(1));
  generous.add_constraint({{x0, Rational(1)}}, lp::Relation::LessEq,
                          Rational(10), "cap0");
  generous.add_constraint({{x1, Rational(1)}}, lp::Relation::LessEq,
                          Rational(10), "cap1");
  generous.add_constraint({{x0, Rational(1)}, {x1, Rational(1)}},
                          lp::Relation::LessEq, Rational(12), "sum");
  const auto seed = generous.solve_exact().basic_structurals;
  ASSERT_FALSE(seed.empty());

  lp::LpProblem tight;
  (void)tight.add_variable("x0");
  (void)tight.add_variable("x1");
  tight.set_objective(0, Rational(1));
  tight.set_objective(1, Rational(1));
  tight.add_constraint({{std::size_t{0}, Rational(1)}},
                       lp::Relation::LessEq, Rational(10), "cap0");
  tight.add_constraint({{std::size_t{1}, Rational(1)}},
                       lp::Relation::LessEq, Rational(10), "cap1");
  tight.add_constraint(
      {{std::size_t{0}, Rational(1)}, {std::size_t{1}, Rational(1)}},
      lp::Relation::LessEq, Rational(3), "sum");
  for (const ExactEngine engine :
       {ExactEngine::Bareiss, ExactEngine::Rational}) {
    const lp::WarmInfo info = expect_warm_matches_cold(tight, seed, engine);
    EXPECT_TRUE(info.attempted);
    EXPECT_FALSE(info.crash_ok);
    EXPECT_FALSE(info.accepted);
  }
}

TEST(WarmStart, MalformedSeedFallsBackCold) {
  Rng rng(505);
  const StarPlatform platform = gen::random_star(4, rng, 0.5);
  const Scenario scenario = Scenario::fifo(platform.order_by_c());
  const lp::LpProblem problem = build_scenario_lp(platform, scenario);
  // Out-of-range column: the crash rejects it before touching the tableau.
  const lp::WarmInfo info = expect_warm_matches_cold(
      problem, {platform.size() + 7}, ExactEngine::Bareiss);
  EXPECT_TRUE(info.attempted);
  EXPECT_FALSE(info.crash_ok);
  EXPECT_FALSE(info.accepted);
}

// ---------------------------------------------------------------- churn --

TEST(WarmStart, ChurnResolveMatchesColdAcrossEventKinds) {
  Rng rng(606);
  const AffineCosts costs = small_latencies();
  for (int iter = 0; iter < 6; ++iter) {
    SolveRequest request;
    request.platform = gen::random_star(5, rng, 0.5);
    request.costs = costs;
    const Scenario scenario = Scenario::fifo(request.platform.order_by_c());
    const ScenarioSolution base =
        solve_scenario(request.platform, scenario, costs.lp_options());
    request.warm_alpha = base.alpha_double();

    PlatformDelta delta;
    switch (iter % 3) {
      case 0: delta = PlatformDelta::slowdown(iter % 5, 1.7); break;
      case 1: delta = PlatformDelta::leave(iter % 5); break;
      default:
        delta = PlatformDelta::join(Worker{0.3, 0.8, 0.15, "joined"});
        break;
    }
    const ResolveResult warm = resolve(request, delta);
    SolveRequest cold_request = request;
    cold_request.warm_alpha.clear();
    const ResolveResult cold = resolve(cold_request, delta);
    EXPECT_EQ(warm.solution.throughput, cold.solution.throughput);
    ASSERT_EQ(warm.solution.alpha.size(), cold.solution.alpha.size());
    for (std::size_t i = 0; i < cold.solution.alpha.size(); ++i) {
      EXPECT_EQ(warm.solution.alpha[i], cold.solution.alpha[i]);
    }
    EXPECT_EQ(cold.solution.lp_warm_starts, 0u);
  }
}

// ----------------------------------------------------------- arena totals --

TEST(WarmStart, ArenaAggregateSumsAcrossThreads) {
  // The aggregate accessor must fold exited worker threads' counters in
  // and never lose counts relative to the per-thread snapshots.
  const auto before = numeric::limb_arena_aggregate_stats();
  std::uint64_t thread_local_acquires = 0;
  std::thread worker([&] {
    Rng rng(707);
    const StarPlatform platform = gen::random_star(6, rng, 0.5);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    (void)solve_scenario(platform, scenario);
    thread_local_acquires = numeric::limb_arena_stats().acquires;
  });
  worker.join();
  const auto after = numeric::limb_arena_aggregate_stats();
  EXPECT_GT(thread_local_acquires, 0u);
  EXPECT_GE(after.acquires - before.acquires, thread_local_acquires);
  EXPECT_GE(after.pool_hits, before.pool_hits);
}

}  // namespace
}  // namespace dlsched
