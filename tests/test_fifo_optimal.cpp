// Tests of Theorem 1 and Proposition 1: the algorithmic heart of the paper.
#include <gtest/gtest.h>

#include "core/brute_force.hpp"
#include "core/fifo_optimal.hpp"
#include "core/scenario_lp.hpp"
#include "platform/generators.hpp"
#include "schedule/validator.hpp"
#include "util/rng.hpp"
#include "registry_shims.hpp"

namespace dlsched {
namespace {

using numeric::Rational;

// ------------------------------------------------------- basic behaviour --

TEST(FifoOptimal, SingleWorker) {
  const StarPlatform platform({Worker{0.25, 0.5, 0.125, "P1"}});
  const auto result = shim::fifo_optimal(platform);
  EXPECT_EQ(result.solution.throughput, Rational(8, 7));
  EXPECT_TRUE(result.provably_optimal);
  EXPECT_FALSE(result.mirrored);
  EXPECT_TRUE(validate(platform, result.schedule).ok);
}

TEST(FifoOptimal, UsesNonDecreasingCOrder) {
  const StarPlatform platform({Worker{0.3, 0.1, 0.15, "slow_link"},
                               Worker{0.1, 0.3, 0.05, "fast_link"}});
  const auto result = shim::fifo_optimal(platform);
  ASSERT_EQ(result.solution.scenario.send_order.size(), 2u);
  EXPECT_EQ(result.solution.scenario.send_order[0], 1u);  // smaller c first
  EXPECT_TRUE(result.solution.scenario.is_fifo());
}

TEST(FifoOptimal, ScheduleValidatesOnRandomPlatforms) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    const StarPlatform platform =
        gen::random_star(6, rng, rng.uniform(0.1, 0.95));
    const auto result = shim::fifo_optimal(platform);
    const auto report = validate(platform, result.schedule);
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
    EXPECT_NEAR(result.schedule.total_load(),
                result.solution.throughput.to_double(), 1e-9);
  }
}

// ----------------------------------- Theorem 1: ordering by non-decr. c --

class Theorem1Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1Sweep, SortedOrderBeatsEveryOtherFifoOrder) {
  // Exhaustive check over all 4! FIFO orders, exact arithmetic: no other
  // order achieves a strictly larger throughput (z < 1).
  Rng rng(GetParam());
  const StarPlatform platform = gen::random_star_grid(4, rng, 1, 2);
  const auto optimal = shim::fifo_optimal(platform);

  BruteForceOptions options;
  options.fifo_only = true;
  const auto brute = brute_force_best(platform, options);
  EXPECT_EQ(brute.scenarios_tried, 24u);
  EXPECT_EQ(brute.best.throughput, optimal.solution.throughput)
      << "Theorem 1 violated: brute force found "
      << brute.best.throughput.to_string() << " vs "
      << optimal.solution.throughput.to_string();
}

TEST_P(Theorem1Sweep, AtMostOneEnrolledWorkerIdles) {
  // Lemma 1: an optimal vertex of the FIFO LP has at most one worker with
  // idle time.  (Lemma 2 further shows an optimum exists where that worker
  // is the *last* one; the LP may return any optimal vertex, so the robust
  // assertion is the count.)  With generic random parameters and every
  // worker enrolled, the vertex-counting argument applies directly.
  Rng rng(GetParam() ^ 0xf1f0);
  const double z = rng.uniform(0.1, 0.9);
  const StarPlatform platform = gen::random_star(5, rng, z);
  const auto result = shim::fifo_optimal(platform);
  if (result.solution.enrolled().size() != platform.size()) {
    GTEST_SKIP() << "resource selection dropped a worker; vertex counting "
                    "does not directly apply";
  }
  std::size_t idlers = 0;
  for (const ScheduleEntry& e : result.schedule.entries) {
    if (e.idle > 1e-9) ++idlers;
  }
  EXPECT_LE(idlers, 1u);

  // The same count exactly, on the LP vertex itself: x_i is the slack of
  // chain row i (rows 0..p-1; row p is the one-port row).
  const lp::LpProblem problem =
      build_scenario_lp(platform, result.solution.scenario);
  const lp::Solution<Rational> vertex = problem.solve_exact();
  ASSERT_EQ(vertex.status, lp::Status::Optimal);
  EXPECT_EQ(vertex.objective, result.solution.throughput);
  std::size_t exact_idlers = 0;
  for (std::size_t k = 0; k < platform.size(); ++k) {
    if (problem.row_slack(k, vertex.values).is_positive()) ++exact_idlers;
  }
  EXPECT_LE(exact_idlers, 1u);
}

TEST_P(Theorem1Sweep, MirrorSolvesZGreaterThanOne) {
  // z > 1: the mirrored solve must equal the brute-force FIFO optimum and
  // must send in non-increasing c order.
  Rng rng(GetParam() ^ 0x2222);
  const StarPlatform platform = gen::random_star_grid(4, rng, 2, 1);  // z = 2
  const auto result = shim::fifo_optimal(platform);
  EXPECT_TRUE(result.mirrored);
  EXPECT_TRUE(validate(platform, result.schedule).ok);

  // Send order is non-increasing in c.
  const auto& order = result.solution.scenario.send_order;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_GE(platform.worker(order[i]).c, platform.worker(order[i + 1]).c);
  }

  BruteForceOptions options;
  options.fifo_only = true;
  const auto brute = brute_force_best(platform, options);
  EXPECT_EQ(brute.best.throughput, result.solution.throughput);
}

TEST_P(Theorem1Sweep, ZEqualsOneIsOrderInsensitive) {
  // z = 1 (c_i = d_i): every FIFO order achieves the optimum.
  Rng rng(GetParam() ^ 0x3333);
  const StarPlatform platform = gen::random_star_grid(4, rng, 1, 1);
  const auto reference = shim::fifo_optimal(platform);
  for (int trial = 0; trial < 4; ++trial) {
    const auto order = rng.permutation(platform.size());
    const auto sol = shim::scenario_exact(platform, Scenario::fifo(order));
    EXPECT_EQ(sol.throughput, reference.solution.throughput);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Sweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// ------------------------------------------------------ resource selection --

TEST(FifoOptimal, DropsUselessWorker) {
  // A worker whose communication alone exceeds any useful contribution is
  // left out (the paper: "the best FIFO schedule may well not involve all
  // processors").
  const StarPlatform platform({Worker{0.05, 0.2, 0.025, "good1"},
                               Worker{0.06, 0.25, 0.03, "good2"},
                               Worker{5.0, 50.0, 2.5, "hopeless"}});
  const auto result = shim::fifo_optimal(platform);
  const auto used = result.solution.enrolled();
  EXPECT_LT(used.size(), platform.size());
  for (std::size_t w : used) EXPECT_NE(platform.worker(w).name, "hopeless");
}

TEST(FifoOptimal, EnrollsEveryoneWhenWorthwhile) {
  // Identical strong workers: all are enrolled.
  const StarPlatform platform = StarPlatform::bus(0.1, 0.05, {1.0, 1.0, 1.0});
  const auto result = shim::fifo_optimal(platform);
  EXPECT_EQ(result.solution.enrolled().size(), 3u);
}

TEST(FifoOptimal, MoreWorkersNeverHurt) {
  // Adding a worker cannot decrease the optimal FIFO throughput (the LP can
  // always assign it zero load).
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    StarPlatform small = gen::random_star(3, rng, 0.5);
    std::vector<Worker> plus(small.workers().begin(), small.workers().end());
    plus.push_back(Worker{rng.uniform(0.1, 2.0), rng.uniform(0.1, 5.0), 0.0,
                          "extra"});
    plus.back().d = 0.5 * plus.back().c;
    const StarPlatform big(plus);
    const auto small_result = shim::fifo_optimal(small);
    const auto big_result = shim::fifo_optimal(big);
    EXPECT_GE(big_result.solution.throughput, small_result.solution.throughput);
  }
}

// -------------------------------------------------------------- edge cases --

TEST(FifoOptimal, EmptyPlatformRejected) {
  EXPECT_THROW(shim::fifo_optimal(StarPlatform()), Error);
}

TEST(FifoOptimal, NonUniformZFlaggedAsHeuristic) {
  const StarPlatform platform({Worker{1.0, 1.0, 0.5, ""},
                               Worker{1.0, 1.0, 0.9, ""}});
  const auto result = shim::fifo_optimal(platform);
  EXPECT_FALSE(result.provably_optimal);
  EXPECT_TRUE(validate(platform, result.schedule).ok);
}

TEST(FifoOptimal, TwoIdenticalWorkersSplitSymmetrically) {
  const StarPlatform platform({Worker{0.2, 0.4, 0.1, "P1"},
                               Worker{0.2, 0.4, 0.1, "P2"}});
  const auto result = shim::fifo_optimal(platform);
  // Both enrolled; the optimum is unique here up to the LP vertex choice,
  // but total load must exceed the single-worker throughput.
  const StarPlatform solo({Worker{0.2, 0.4, 0.1, "P1"}});
  const auto solo_result = shim::fifo_optimal(solo);
  EXPECT_GT(result.solution.throughput, solo_result.solution.throughput);
}

}  // namespace
}  // namespace dlsched
