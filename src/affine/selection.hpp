// Resource selection under the affine cost model (paper Section 6).
//
// With per-message start-up latencies every enrolled worker costs horizon
// whether or not it receives load, so the hard question becomes *which
// subset* to enroll -- NP-hard on heterogeneous stars per
// Legrand-Yang-Casanova [20].  This module provides the three selection
// strategies the affine solvers expose through the SolverRegistry:
//   * exact subset enumeration (2^p - 1 FIFO LPs) with an optional time
//     budget, so large platforms degrade to "best subset seen" instead of
//     hanging a sweep;
//   * the greedy prefix heuristic (grow the non-decreasing-c prefix while
//     the throughput improves; p LPs);
//   * a deterministic local search over participant sets: start from the
//     greedy prefix and climb through add / drop / swap moves until no
//     single-worker change improves the throughput.
//
// All three report infeasibility (constants alone exceed T = 1 for every
// candidate subset) through `feasible == false` rather than throwing, so a
// batch run records a clean per-job outcome.
#pragma once

#include <cstddef>
#include <vector>

#include "core/affine.hpp"
#include "platform/star_platform.hpp"

namespace dlsched::affine {

struct AffineSelectionResult {
  ScenarioSolution best;                 ///< best subset's solution
  std::vector<std::size_t> participants; ///< the chosen subset (sigma_1 order)
  /// Subsets considered, pruned ones included (so the count matches the
  /// plain enumeration; LPs actually solved = tried - pruned).
  std::size_t subsets_tried = 0;
  std::size_t exact_resolves = 0;        ///< fast mode: LPs re-solved exactly
  std::size_t subsets_pruned = 0;        ///< skipped by the upper bound
  /// Skipped by the double-LP margin screen (after surviving the bound);
  /// exact LPs actually solved = tried - pruned - screened.
  std::size_t subsets_screened = 0;
  std::size_t lp_pivots_total = 0;       ///< exact-LP pivots across the scan
  std::size_t lp_warm_starts = 0;        ///< exact solves with accepted seed
  /// Pivots avoided by accepted warm starts, measured against the most
  /// recent cold solve of the same subset size in the chain (LP dimension
  /// equals enrolled count, so this is a like-for-like yardstick).
  std::size_t lp_pivots_saved = 0;
  bool feasible = false;                 ///< some subset admitted alpha >= 0
  bool budget_exhausted = false;         ///< stopped early on the time budget
};

/// Knobs for the exact subset enumeration.
struct AffineSubsetOptions {
  std::size_t max_workers = 12;      ///< 2^p guard
  double time_budget_seconds = 0.0;  ///< 0 = unlimited
  bool use_fast_lp = false;          ///< screen candidates with the double LP

  /// Carry each evaluated subset's alpha support into the next LP of the
  /// Gray-code walk as a warm-start seed.  Never changes the winner (the
  /// engines' cold-fallback + uniqueness guarantee makes every warm solve
  /// bit-identical to its cold twin); only `lp_pivots*` move.  Exact path
  /// only -- the double screen has no warm start.
  bool warm_start = true;

  /// Skip subsets a one-port knapsack bound proves strictly sub-optimal:
  ///   U(S) = max sum alpha_i  s.t.  sum (c_i+d_i) alpha_i <= 1 - L(S),
  ///                                 0 <= alpha_i <= cap_i,
  /// with cap_i the worker's own chain-row limit -- a relaxation of the
  /// subset's LP, so U(S) >= rho(S).  Also primes the pruning floor by
  /// solving the p FIFO prefixes (one warm chain) before the scan.  The
  /// bound is evaluated in double with a conservative safety slack and
  /// prunes only subsets *strictly* below the floor, so neither the
  /// winner (ties included) nor the feasible flag ever changes.  Under
  /// `use_fast_lp` the floor is the best double throughput seen (the
  /// prefixes first, then every candidate) less the screen's margin.
  bool prune = true;

  /// Second pruning tier: before each exact solve, evaluate the candidate
  /// with the double simplex and skip the exact LP when the fast
  /// throughput lands below the incumbent minus the safety margin -- the
  /// same error model (and margin) as `use_fast_lp`, applied inline so
  /// the warm chain and the exact incumbent keep advancing.  Counted in
  /// `subsets_screened`.  Exact path only; needs a positive incumbent.
  bool screen = true;
};

/// Exact resource selection: walks every non-empty subset in Gray-code
/// order over the platform's non-decreasing-c worker order (adjacent
/// subsets differ by one worker, which is what makes the warm-start chain
/// tight).  Throws if platform.size() > options.max_workers.  A positive
/// `time_budget_seconds` stops the enumeration early (best-so-far wins,
/// `budget_exhausted` set).
///
/// `use_fast_lp` screens every candidate with the double simplex and only
/// re-solves exactly, in enumeration order, the candidates whose fast
/// throughput lands within a safety margin of the fast optimum.  The
/// returned winner, participants and solution are bit-identical to the
/// exact enumeration (the final comparison is always between exact
/// rationals); `exact_resolves` counts the LPs that went to the exact
/// engine.  With linear costs the re-solves stop once the incumbent
/// equals rho(all workers), which no subset exceeds (see `Ceiling` in
/// selection.cpp); the same stop serves the greedy and local scans.  The
/// fast screen walks the Gray code in fixed blocks of 512 masks, side by
/// side on free pool lanes (util/fan_out.hpp), each block pruning against
/// its own candidates' floors: the result and every counter are the same
/// whatever the lane count, and with latencies `subsets_pruned` can be
/// lower than a single walk's.
[[nodiscard]] AffineSelectionResult solve_affine_fifo_best_subset(
    const StarPlatform& platform, const AffineCosts& costs,
    const AffineSubsetOptions& options);

/// Legacy signature; delegates with default warm-start + pruning knobs.
[[nodiscard]] AffineSelectionResult solve_affine_fifo_best_subset(
    const StarPlatform& platform, const AffineCosts& costs,
    std::size_t max_workers = 12, double time_budget_seconds = 0.0,
    bool use_fast_lp = false);

/// Greedy selection: grow the prefix of the non-decreasing-c order while
/// the throughput improves.  Polynomial (p LPs); not optimal in general
/// (the problem is NP-hard [20]) but exact on the instances where the
/// optimal subset is a prefix -- the common case, exercised in tests.
/// `use_fast_lp` behaves as in solve_affine_fifo_best_subset (an
/// infeasible fast prefix is confirmed exactly before the scan stops).
[[nodiscard]] AffineSelectionResult solve_affine_fifo_greedy(
    const StarPlatform& platform, const AffineCosts& costs,
    bool use_fast_lp = false);

struct AffineLocalSearchOptions {
  std::size_t max_steps = 200;       ///< accepted-move cap
  double time_budget_seconds = 0.0;  ///< 0 = unlimited
  bool use_fast_lp = false;          ///< screen moves with the double LP
  /// Warm-start every exact move evaluation from the sweep incumbent's
  /// alpha support (each move differs from the incumbent by at most two
  /// workers).  Never changes the search trajectory, only pivot counts.
  bool warm_start = true;
};

/// Local-search refinement over participant sets: starts from the greedy
/// prefix and repeatedly applies the best of all add-one / drop-one /
/// swap-one moves until none improves the throughput.  Deterministic (the
/// move scan order is fixed), never worse than greedy, and polynomial per
/// step (O(p^2) LPs per sweep).
[[nodiscard]] AffineSelectionResult solve_affine_fifo_local_search(
    const StarPlatform& platform, const AffineCosts& costs,
    const AffineLocalSearchOptions& options = {});

}  // namespace dlsched::affine
