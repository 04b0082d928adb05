// Exhaustive search over communication orderings.
//
// The paper conjectures the general problem (free choice of sigma_1 and
// sigma_2) is NP-hard; for small platforms this module enumerates every
// permutation pair and solves the scenario LP, providing ground truth for
// the optimality theorems (and counters for how quickly the search space
// explodes: p!^2 scenario LPs).
//
// Enumerating subsets is unnecessary: the LP performs resource selection by
// assigning zero load, so the optimum over all subsets is reached by some
// full-set permutation pair.
#pragma once

#include <cstddef>
#include <functional>

#include "core/scenario_lp.hpp"
#include "platform/star_platform.hpp"

namespace dlsched {

struct BruteForceOptions {
  bool fifo_only = false;      ///< restrict to sigma_2 == sigma_1
  bool lifo_only = false;      ///< restrict to sigma_2 == reverse(sigma_1)
  std::size_t max_workers = 7; ///< refuse larger platforms (p!^2 blow-up)
  /// Stop enumerating after this many seconds and report the best scenario
  /// seen so far (0 = search to completion).  A truncated search loses the
  /// exactness guarantee, flagged via `budget_exhausted`.
  double time_budget_seconds = 0.0;
};

struct BruteForceResult {
  ScenarioSolution best;          ///< exact optimum over the searched space
  std::size_t scenarios_tried = 0;
  bool budget_exhausted = false;  ///< stopped early on time_budget_seconds
};

/// Exact exhaustive search.  Throws if platform.size() > options.max_workers.
/// The search runs in blocks, one per sigma_1, side by side on free pool
/// lanes (util/fan_out.hpp); the result and `scenarios_tried` do not depend
/// on how many lanes joined, unless the time budget stops the blocks.
[[nodiscard]] BruteForceResult brute_force_best(
    const StarPlatform& platform, const BruteForceOptions& options = {});

struct BruteForceResultD {
  ScenarioSolutionD best;
  std::size_t scenarios_tried = 0;
  bool budget_exhausted = false;  ///< stopped early on time_budget_seconds
};

/// Double-precision exhaustive search (for slightly larger p in benches).
[[nodiscard]] BruteForceResultD brute_force_best_double(
    const StarPlatform& platform, const BruteForceOptions& options = {});

/// Visits every scenario in the searched space (exact solve per scenario),
/// one sigma_1 block after another on the calling thread.  Used by
/// property tests that need the full distribution, not just the max.
void for_each_scenario(
    const StarPlatform& platform, const BruteForceOptions& options,
    const std::function<void(const ScenarioSolution&)>& visit);

}  // namespace dlsched
