// Platform churn (core/churn.hpp): the churned platform and its index map,
// the exact re-solve, and the stale schedule's throughput retention.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/churn.hpp"
#include "core/scenario_lp.hpp"
#include "platform/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlsched {
namespace {

constexpr std::size_t kGone = SIZE_MAX;

StarPlatform four_workers() {
  return StarPlatform({Worker{0.1, 0.4, 0.05, "A"},
                       Worker{0.2, 0.3, 0.1, "B"},
                       Worker{0.3, 0.6, 0.15, "C"},
                       Worker{0.4, 0.5, 0.2, "D"}});
}

/// Scalar latencies plus per-worker send and return overrides, so the
/// re-indexing has something to move and a joined worker has a scalar to
/// fall back to.
AffineCosts per_worker_latencies() {
  AffineCosts costs;
  costs.send_latency = 0.015;
  costs.compute_latency = 0.002;
  costs.return_latency = 0.007;
  costs.send_latency_per_worker = {0.01, 0.02, 0.03, 0.04};
  costs.return_latency_per_worker = {0.001, 0.002, 0.003, 0.004};
  return costs;
}

AffineCosts scalar_latencies() {
  AffineCosts costs;
  costs.send_latency = 0.01;
  costs.compute_latency = 0.002;
  costs.return_latency = 0.005;
  return costs;
}

// ------------------------------------------------------------ apply_delta --

TEST(Churn, AJoinAppendsTheWorkerAndFillsItsLatenciesFromTheScalars) {
  const Worker joined{0.25, 0.8, 0.1, "E"};
  const ChurnedPlatform churned = apply_delta(
      four_workers(), per_worker_latencies(), PlatformDelta::join(joined));
  ASSERT_EQ(churned.platform.size(), 5u);
  EXPECT_EQ(churned.old_to_new, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(churned.platform.worker(4).name, "E");
  EXPECT_EQ(churned.platform.worker(4).w, 0.8);
  EXPECT_EQ(churned.costs.send_latency_per_worker,
            (std::vector<double>{0.01, 0.02, 0.03, 0.04, 0.015}));
  EXPECT_EQ(churned.costs.return_latency_per_worker,
            (std::vector<double>{0.001, 0.002, 0.003, 0.004, 0.007}));
  EXPECT_EQ(churned.costs.compute_latency, 0.002);
}

TEST(Churn, ALeaveShiftsTheLaterWorkersDown) {
  const ChurnedPlatform churned = apply_delta(
      four_workers(), per_worker_latencies(), PlatformDelta::leave(1));
  ASSERT_EQ(churned.platform.size(), 3u);
  EXPECT_EQ(churned.old_to_new, (std::vector<std::size_t>{0, kGone, 1, 2}));
  EXPECT_EQ(churned.platform.worker(0).name, "A");
  EXPECT_EQ(churned.platform.worker(1).name, "C");
  EXPECT_EQ(churned.platform.worker(2).name, "D");
  EXPECT_EQ(churned.costs.send_latency_per_worker,
            (std::vector<double>{0.01, 0.03, 0.04}));
  EXPECT_EQ(churned.costs.return_latency_per_worker,
            (std::vector<double>{0.001, 0.003, 0.004}));
}

TEST(Churn, ASlowdownScalesOnlyTheTargetsComputeTime) {
  const StarPlatform before = four_workers();
  const AffineCosts costs = per_worker_latencies();
  const ChurnedPlatform churned =
      apply_delta(before, costs, PlatformDelta::slowdown(2, 1.5));
  ASSERT_EQ(churned.platform.size(), 4u);
  EXPECT_EQ(churned.old_to_new, (std::vector<std::size_t>{0, 1, 2, 3}));
  for (std::size_t i = 0; i < before.size(); ++i) {
    const Worker& was = before.worker(i);
    const Worker& is = churned.platform.worker(i);
    EXPECT_EQ(is.c, was.c);
    EXPECT_EQ(is.d, was.d);
    EXPECT_EQ(is.w, i == 2 ? was.w * 1.5 : was.w) << i;
  }
  EXPECT_EQ(churned.costs.send_latency_per_worker,
            costs.send_latency_per_worker);
  EXPECT_EQ(churned.costs.return_latency_per_worker,
            costs.return_latency_per_worker);
}

TEST(Churn, MalformedDeltasAreRejected) {
  const StarPlatform platform = four_workers();
  EXPECT_THROW((void)apply_delta(platform, {}, PlatformDelta::leave(4)),
               Error);
  EXPECT_THROW((void)apply_delta(platform, {}, PlatformDelta::slowdown(4, 2)),
               Error);
  EXPECT_THROW((void)apply_delta(platform, {}, PlatformDelta::slowdown(0, 0)),
               Error);
  const StarPlatform alone({Worker{0.1, 0.2, 0.05, "A"}});
  EXPECT_THROW((void)apply_delta(alone, {}, PlatformDelta::leave(0)), Error);
}

// ---------------------------------------------------------------- resolve --

/// One event of each kind on a p-worker platform.
std::vector<PlatformDelta> one_of_each(std::size_t p) {
  return {PlatformDelta::slowdown(p / 2, 1.7), PlatformDelta::leave(p - 1),
          PlatformDelta::join(Worker{0.3, 0.8, 0.15, "joined"})};
}

TEST(Churn, ResolveIsTheExactSolveOfTheChurnedFifo) {
  Rng rng(606);
  for (int iter = 0; iter < 4; ++iter) {
    const StarPlatform platform = gen::random_star(5, rng, 0.5);
    for (const AffineCosts& costs : {AffineCosts{}, scalar_latencies()}) {
      for (const bool two_port : {false, true}) {
        for (const PlatformDelta& delta : one_of_each(platform.size())) {
          SolveRequest request;
          request.platform = platform;
          request.costs = costs;
          request.two_port = two_port;
          const ResolveResult got = resolve(request, delta);
          const ChurnedPlatform churned = apply_delta(platform, costs, delta);
          const ScenarioSolution want = solve_scenario(
              churned.platform, Scenario::fifo(churned.platform.order_by_c()),
              churned.costs.lp_options(!two_port));
          SCOPED_TRACE(delta.kind_name());
          EXPECT_EQ(got.old_to_new, churned.old_to_new);
          ASSERT_EQ(got.platform.size(), churned.platform.size());
          EXPECT_EQ(got.solution.lp_feasible, want.lp_feasible);
          EXPECT_EQ(got.solution.throughput, want.throughput);
          EXPECT_EQ(got.solution.alpha, want.alpha);
          EXPECT_EQ(got.solution.scenario.send_order,
                    want.scenario.send_order);
          EXPECT_EQ(got.solution.scenario.return_order,
                    want.scenario.return_order);
          EXPECT_EQ(got.solution.lp_pivots, want.lp_pivots);
          EXPECT_TRUE(got.solution.throughput.is_positive());
        }
      }
    }
  }
}

// ---------------------------------------------------------- execute_stale --

/// Stale throughput over the re-solved optimum after `delta`.
double retention(const StarPlatform& platform, const AffineCosts& costs,
                 const PlatformDelta& delta) {
  const ScenarioSolution before = solve_scenario(
      platform, Scenario::fifo(platform.order_by_c()), costs.lp_options());
  SolveRequest request;
  request.platform = platform;
  request.costs = costs;
  const ResolveResult after = resolve(request, delta);
  const StaleExecution stale =
      execute_stale(apply_delta(platform, costs, delta),
                    before.alpha_double(), before.scenario);
  EXPECT_GT(stale.surviving_load, 0.0);
  return stale.rate / after.solution.throughput.to_double();
}

TEST(Churn, TheStaleScheduleRetainsAtMostTheReSolvedThroughput) {
  // The stale loads are a feasible schedule on the churned platform over
  // a subset of its workers, so they cannot beat the re-solve.  With
  // latencies, a joined worker pays its constants in the re-solve even at
  // alpha = 0, which the stale run does not: joins run on linear costs.
  Rng rng(909);
  for (int iter = 0; iter < 6; ++iter) {
    const StarPlatform platform = gen::random_star(6, rng, 0.5);
    for (const PlatformDelta& delta : one_of_each(platform.size())) {
      SCOPED_TRACE(delta.kind_name());
      for (const AffineCosts& costs : {AffineCosts{}, scalar_latencies()}) {
        if (delta.kind == PlatformDelta::Kind::Join && costs.is_affine()) {
          continue;
        }
        const double kept = retention(platform, costs, delta);
        EXPECT_GT(kept, 0.0);
        EXPECT_LE(kept, 1.0 + 1e-9);
      }
    }
  }
}

TEST(Churn, AStaleScheduleWithNoSurvivingLoadHasRateZero) {
  const StarPlatform platform({Worker{0.1, 0.2, 0.05, "A"},
                               Worker{0.2, 0.3, 0.1, "B"}});
  const ChurnedPlatform churned =
      apply_delta(platform, {}, PlatformDelta::leave(0));
  const StaleExecution stale = execute_stale(
      churned, {0.5, 0.0}, Scenario::fifo(std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(stale.surviving_load, 0.0);
  EXPECT_EQ(stale.rate, 0.0);
}

}  // namespace
}  // namespace dlsched
