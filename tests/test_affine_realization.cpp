// Tests of the affine subsystem: schedule realization with explicit
// latency segments, first-principles validation, and the DES replay that
// must reproduce the LP horizon (paper Section 6).
#include <gtest/gtest.h>

#include <cmath>

#include "affine/realization.hpp"
#include "affine/replay.hpp"
#include "affine/selection.hpp"
#include "core/affine.hpp"
#include "platform/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlsched {
namespace {

using affine::AffineRealization;
using affine::realize_affine;
using affine::replay_affine;
using affine::validate_affine;

std::vector<std::size_t> all_of(const StarPlatform& platform) {
  std::vector<std::size_t> ids(platform.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

AffineCosts small_costs() {
  AffineCosts costs;
  costs.send_latency = 0.02;
  costs.compute_latency = 0.004;
  costs.return_latency = 0.01;
  return costs;
}

TEST(AffineRealization, LaysOutValidTimelinesWithLatencySegments) {
  Rng rng(41);
  const StarPlatform platform = gen::random_star(5, rng, 0.5, 0.05, 0.4);
  const AffineCosts costs = small_costs();
  const ScenarioSolution solution =
      solve_affine_fifo(platform, all_of(platform), costs);
  ASSERT_TRUE(solution.lp_feasible);

  const AffineRealization realization =
      realize_affine(platform, solution, costs);
  ASSERT_EQ(realization.lanes.size(), platform.size());
  const ValidationReport report = validate_affine(platform, realization, costs);
  EXPECT_TRUE(report.ok) << report.violations.front();

  // Every recv interval contains its latency segment on top of the linear
  // term, and the returns pack against the horizon.
  for (std::size_t k = 0; k < realization.lanes.size(); ++k) {
    const affine::AffineLane& lane = realization.lanes[k];
    const WorkerLane& intervals = realization.timeline.lanes[k];
    EXPECT_NEAR(intervals.recv.duration(),
                costs.send_latency +
                    lane.alpha * platform.worker(lane.worker).c,
                1e-12);
    EXPECT_GE(lane.idle, -1e-12);
  }
  EXPECT_NEAR(realization.makespan, 1.0, 1e-12);
}

TEST(AffineRealization, DesReplayReproducesTheLpHorizon) {
  // The acceptance property across a sweep of random instances, costs and
  // participant counts: simulated makespan == LP horizon within 1e-9.
  for (const std::uint64_t seed : {7ULL, 8ULL, 9ULL, 10ULL, 11ULL}) {
    Rng rng(seed);
    const StarPlatform platform =
        gen::random_star(4 + seed % 3, rng, 0.5, 0.05, 0.5);
    AffineCosts costs;
    costs.send_latency = rng.uniform(0.0, 0.04);
    costs.compute_latency = rng.uniform(0.0, 0.01);
    costs.return_latency = rng.uniform(0.0, 0.02);
    const ScenarioSolution solution =
        solve_affine_fifo(platform, all_of(platform), costs);
    ASSERT_TRUE(solution.lp_feasible);
    const AffineRealization realization =
        realize_affine(platform, solution, costs);
    ASSERT_TRUE(validate_affine(platform, realization, costs).ok);
    const affine::ReplayResult replay = replay_affine(platform, realization);
    EXPECT_LE(replay.rel_error, 1e-9) << "seed " << seed;
  }
}

TEST(AffineRealization, PerWorkerLatenciesFlowIntoLanesAndReplay) {
  Rng rng(42);
  const StarPlatform platform = gen::random_star(4, rng, 0.5, 0.05, 0.4);
  AffineCosts costs;
  costs.send_latency_per_worker = {0.01, 0.02, 0.03, 0.04};
  costs.return_latency_per_worker = {0.004, 0.003, 0.002, 0.001};
  costs.compute_latency = 0.002;
  const ScenarioSolution solution =
      solve_affine_fifo(platform, all_of(platform), costs);
  ASSERT_TRUE(solution.lp_feasible);
  const AffineRealization realization =
      realize_affine(platform, solution, costs);
  for (const affine::AffineLane& lane : realization.lanes) {
    EXPECT_DOUBLE_EQ(lane.send_latency,
                     costs.send_latency_per_worker[lane.worker]);
    EXPECT_DOUBLE_EQ(lane.return_latency,
                     costs.return_latency_per_worker[lane.worker]);
  }
  EXPECT_TRUE(validate_affine(platform, realization, costs).ok);
  EXPECT_LE(replay_affine(platform, realization).rel_error, 1e-9);
}

TEST(AffineRealization, ZeroAlphaParticipantsKeepTheirLatencySegments) {
  // Three healthy workers and a straggler whose port footprint (c + d)
  // dwarfs theirs: forcing all four in stays feasible, but the LP leaves
  // the straggler at alpha = 0 -- and the realization must still charge
  // its start-up constants, exactly as the LP did.
  const StarPlatform platform({Worker{0.05, 0.2, 0.025, "a"},
                               Worker{0.05, 0.2, 0.025, "b"},
                               Worker{0.05, 0.2, 0.025, "c"},
                               Worker{1.0, 0.2, 0.5, "straggler"}});
  AffineCosts costs;
  costs.send_latency = 0.05;
  costs.return_latency = 0.025;
  const ScenarioSolution solution =
      solve_affine_fifo(platform, all_of(platform), costs);
  ASSERT_TRUE(solution.lp_feasible);
  std::size_t zero_alpha = 0;
  const AffineRealization realization =
      realize_affine(platform, solution, costs);
  ASSERT_EQ(realization.lanes.size(), 4u);
  for (std::size_t k = 0; k < realization.lanes.size(); ++k) {
    if (realization.lanes[k].alpha > 0.0) continue;
    ++zero_alpha;
    // A latency-only lane: non-empty message intervals of exactly the
    // constant duration.
    EXPECT_NEAR(realization.timeline.lanes[k].recv.duration(),
                costs.send_latency, 1e-12);
    EXPECT_NEAR(realization.timeline.lanes[k].ret.duration(),
                costs.return_latency, 1e-12);
  }
  EXPECT_GT(zero_alpha, 0u);  // the regime actually zeroes someone out
  EXPECT_TRUE(validate_affine(platform, realization, costs).ok);
  EXPECT_LE(replay_affine(platform, realization).rel_error, 1e-9);
}

TEST(AffineRealization, HorizonRescalesTheWholeTimeUnit) {
  Rng rng(43);
  const StarPlatform platform = gen::random_star(3, rng, 0.5, 0.05, 0.4);
  const AffineCosts costs = small_costs();
  const ScenarioSolution solution =
      solve_affine_fifo(platform, all_of(platform), costs);
  ASSERT_TRUE(solution.lp_feasible);
  const AffineRealization scaled =
      realize_affine(platform, solution, costs, 3.0);
  EXPECT_NEAR(scaled.makespan, 3.0, 1e-12);
  // Latencies scale with the unit (that is what keeps the layout
  // feasible), and the replay tracks the scaled horizon.
  EXPECT_DOUBLE_EQ(scaled.lanes.front().send_latency,
                   3.0 * costs.send_latency);
  EXPECT_TRUE(validate_affine(platform, scaled, costs).ok);
  EXPECT_LE(replay_affine(platform, scaled).rel_error, 1e-9);
}

TEST(AffineRealization, ValidateCatchesCorruptedRealizations) {
  Rng rng(44);
  const StarPlatform platform = gen::random_star(3, rng, 0.5, 0.05, 0.4);
  const AffineCosts costs = small_costs();
  const ScenarioSolution solution =
      solve_affine_fifo(platform, all_of(platform), costs);
  ASSERT_TRUE(solution.lp_feasible);
  AffineRealization broken = realize_affine(platform, solution, costs);
  // Stretch one return past the horizon: duration and horizon checks fire.
  broken.timeline.lanes.back().ret.end += 0.5;
  const ValidationReport report = validate_affine(platform, broken, costs);
  EXPECT_FALSE(report.ok);

  AffineRealization shifted = realize_affine(platform, solution, costs);
  // Slide a compute interval before its reception ends: precedence fires
  // through the shared schedule/validator timeline checks.
  shifted.timeline.lanes.front().compute.start -= 0.05;
  shifted.timeline.lanes.front().compute.end -= 0.05;
  EXPECT_FALSE(validate_affine(platform, shifted, costs).ok);

  AffineRealization mislabeled = realize_affine(platform, solution, costs);
  // A lane whose recorded constant drifts from the requested costs fails
  // even though its intervals are internally consistent -- the check is
  // against the costs, not the lane's own bookkeeping.
  mislabeled.lanes.front().send_latency += 0.01;
  mislabeled.timeline.lanes.front().recv.end += 0.01;
  EXPECT_FALSE(validate_affine(platform, mislabeled, costs).ok);
}

TEST(AffineRealization, RefusesInfeasibleSolutions) {
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "P1"},
                               Worker{0.25, 0.25, 0.25, "P2"}});
  AffineCosts costs;
  costs.send_latency = 0.4;
  costs.return_latency = 0.4;
  const ScenarioSolution solution =
      solve_affine_fifo(platform, all_of(platform), costs);
  ASSERT_FALSE(solution.lp_feasible);
  EXPECT_THROW((void)realize_affine(platform, solution, costs), Error);
}

TEST(AffineSelection, LocalSearchDominatesGreedyAndNeverBeatsExact) {
  for (const std::uint64_t seed : {21ULL, 22ULL, 23ULL, 24ULL}) {
    Rng rng(seed);
    const StarPlatform platform = gen::random_star(6, rng, 0.5, 0.05, 0.3);
    AffineCosts costs;
    costs.send_latency = rng.uniform(0.02, 0.12);
    costs.return_latency = costs.send_latency / 2.0;
    const auto greedy = affine::solve_affine_fifo_greedy(platform, costs);
    const auto local =
        affine::solve_affine_fifo_local_search(platform, costs);
    const auto exact =
        affine::solve_affine_fifo_best_subset(platform, costs);
    ASSERT_TRUE(greedy.feasible && local.feasible && exact.feasible);
    EXPECT_GE(local.best.throughput, greedy.best.throughput) << seed;
    EXPECT_LE(local.best.throughput, exact.best.throughput) << seed;
  }
}

TEST(AffineSelection, LocalSearchEscapesANonPrefixOptimum) {
  // Worker 1 has the cheapest link but a devastating per-message start-up;
  // the greedy prefix (ordered by c alone) starts from it and never drops
  // it, while a drop/swap move does.
  const StarPlatform platform({Worker{0.05, 0.30, 0.025, "cheap_link"},
                               Worker{0.08, 0.25, 0.040, "solid_a"},
                               Worker{0.09, 0.25, 0.045, "solid_b"}});
  AffineCosts costs;
  costs.send_latency_per_worker = {0.45, 0.01, 0.01};
  costs.return_latency_per_worker = {0.30, 0.005, 0.005};
  const auto greedy = affine::solve_affine_fifo_greedy(platform, costs);
  const auto local = affine::solve_affine_fifo_local_search(platform, costs);
  const auto exact = affine::solve_affine_fifo_best_subset(platform, costs);
  ASSERT_TRUE(local.feasible && exact.feasible);
  EXPECT_EQ(local.best.throughput, exact.best.throughput);
  if (greedy.feasible) {
    EXPECT_GT(local.best.throughput, greedy.best.throughput);
  }
}

TEST(AffineSelection, SubsetEnumerationHonoursTheTimeBudget) {
  Rng rng(45);
  const StarPlatform platform = gen::random_star(10, rng, 0.5, 0.05, 0.3);
  AffineCosts costs;
  costs.send_latency = 0.01;
  affine::AffineSubsetOptions options;
  options.time_budget_seconds = 1e-9;
  const auto budgeted =
      affine::solve_affine_fifo_best_subset(platform, costs, options);
  EXPECT_TRUE(budgeted.budget_exhausted);
  EXPECT_LT(budgeted.subsets_tried, (std::size_t{1} << 10) - 1);
}

TEST(AffineSelection, InfeasibleConstantsReportCleanly) {
  const StarPlatform platform({Worker{0.25, 0.25, 0.25, "P1"},
                               Worker{0.25, 0.25, 0.25, "P2"}});
  AffineCosts costs;
  costs.send_latency = 0.6;  // even a single worker exceeds T = 1
  costs.return_latency = 0.6;
  for (const auto& result :
       {affine::solve_affine_fifo_best_subset(platform, costs),
        affine::solve_affine_fifo_greedy(platform, costs),
        affine::solve_affine_fifo_local_search(platform, costs)}) {
    EXPECT_FALSE(result.feasible);
    EXPECT_TRUE(result.participants.empty());
    EXPECT_GT(result.subsets_tried, 0u);
  }
}

}  // namespace
}  // namespace dlsched
