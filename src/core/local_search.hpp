// Local search over general permutation pairs (sigma_1, sigma_2).
//
// The paper leaves the complexity of the free-permutation problem open and
// conjectures NP-hardness (Section 7); brute force costs p!^2 LPs.  This
// module attacks the open problem heuristically: steepest-ascent hill
// climbing over the adjacent-transposition neighbourhood of both
// permutations, with multi-start from the structured schedules (FIFO,
// LIFO, random), using the double-precision LP as the oracle.
//
// Guarantees: the result is never worse than the best start (so never
// worse than optimal FIFO / optimal LIFO); on platforms small enough for
// brute force it is exact on most instances (measured in the tests and in
// bench/ablation_ordering).
#pragma once

#include <cstddef>

#include "core/scenario_lp.hpp"
#include "platform/star_platform.hpp"
#include "util/rng.hpp"

namespace dlsched {

struct LocalSearchOptions {
  std::size_t random_restarts = 3;   ///< extra random starts beyond FIFO/LIFO
  std::size_t max_steps = 200;       ///< ascent steps per start
  std::uint64_t seed = 1;            ///< restart generator seed
  bool search_sigma2_only = false;   ///< keep sigma_1 fixed (ablation)
};

struct LocalSearchResult {
  ScenarioSolutionD best;
  std::size_t lp_evaluations = 0;
  std::size_t ascents = 0;           ///< accepted improvement steps
};

/// Runs the search; the returned solution's scenario holds the best
/// (sigma_1, sigma_2) pair found.  The climbs run side by side on free
/// pool lanes (util/fan_out.hpp); the result and its counters do not
/// depend on how many lanes joined.
[[nodiscard]] LocalSearchResult local_search_best_pair(
    const StarPlatform& platform, const LocalSearchOptions& options = {});

}  // namespace dlsched
