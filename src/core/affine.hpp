// The affine cost model (paper Section 6): every message costs a start-up
// latency in addition to the linear term, and a computation pays a fixed
// overhead.  Legrand-Yang-Casanova [20] proved the resulting DLS problem
// NP-hard on heterogeneous stars, so no polynomial optimality result exists
// here; this module provides the cost model and the affine scenario LP
// (fixed participant set and orders).  Resource *selection* -- exact subset
// enumeration, the greedy prefix and the participant-set local search --
// lives in the affine subsystem (affine/selection.hpp), together with the
// schedule realization (affine/realization.hpp) and the DES replay
// (affine/replay.hpp).
//
// The affine model is what makes multi-round strategies non-trivial (see
// core/multiround.hpp): with purely linear costs infinitely many rounds
// would be free.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/scenario_lp.hpp"
#include "platform/star_platform.hpp"

namespace dlsched {

/// Per-activity start-up overheads.  The scalar fields are *global* (the
/// same constant for every worker, as in the "query processing" variant of
/// Barlas [4]); the optional per-worker vectors override the send / return
/// latency worker by worker (platform-indexed), which is what the
/// latency-correlated platform generators produce.  Consumers that cannot
/// honour per-worker values (the multi-round executor, for one) assert
/// `!has_per_worker()` instead of silently collapsing the draws to the
/// global constant.
struct AffineCosts {
  double send_latency = 0.0;     ///< per initial message
  double compute_latency = 0.0;  ///< per computation start (always global)
  double return_latency = 0.0;   ///< per return message

  /// Per-worker overrides (platform-indexed).  Empty = use the global
  /// scalar for every worker; when non-empty the vector must cover the
  /// whole platform (asserted where it is consumed).
  std::vector<double> send_latency_per_worker;
  std::vector<double> return_latency_per_worker;

  /// Effective send latency of worker `i`.
  [[nodiscard]] double send_latency_for(std::size_t i) const {
    return send_latency_per_worker.empty() ? send_latency
                                           : send_latency_per_worker[i];
  }
  /// Effective return latency of worker `i`.
  [[nodiscard]] double return_latency_for(std::size_t i) const {
    return return_latency_per_worker.empty() ? return_latency
                                             : return_latency_per_worker[i];
  }

  [[nodiscard]] bool has_per_worker() const noexcept {
    return !send_latency_per_worker.empty() ||
           !return_latency_per_worker.empty();
  }

  /// Any non-zero constant anywhere (global or per-worker)?
  [[nodiscard]] bool is_affine() const noexcept;

  [[nodiscard]] LpOptions lp_options(bool one_port = true) const {
    LpOptions options;
    options.one_port = one_port;
    options.send_latency = send_latency;
    options.compute_latency = compute_latency;
    options.return_latency = return_latency;
    options.send_latencies = send_latency_per_worker;
    options.return_latencies = return_latency_per_worker;
    return options;
  }
};

/// FIFO affine LP over exactly the given participants (non-decreasing c
/// order is applied internally).  Workers outside `participants` pay
/// nothing.  lp_feasible is false when the constants alone exceed T = 1.
[[nodiscard]] ScenarioSolution solve_affine_fifo(
    const StarPlatform& platform, std::vector<std::size_t> participants,
    const AffineCosts& costs);

/// Same LP over participants that are ALREADY in the order
/// `solve_affine_fifo` would produce (non-decreasing c, stable on the
/// platform-id order).  The hot path of the subset scans: no per-call
/// participant copy, no re-sort.  Asserts the c-order (the tie order within
/// equal c cannot be checked and is the caller's contract).
[[nodiscard]] ScenarioSolution solve_affine_fifo_sorted(
    const StarPlatform& platform, std::span<const std::size_t> participants,
    const AffineCosts& costs);

/// Double-precision variant of the same LP (Precision::Fast screening):
/// identical model and participant ordering, solved with the double
/// simplex.  Used by the selection strategies to rank candidate subsets
/// cheaply before the winner is re-solved exactly.
[[nodiscard]] ScenarioSolutionD solve_affine_fifo_fast(
    const StarPlatform& platform, std::vector<std::size_t> participants,
    const AffineCosts& costs);

/// Presorted-participants variant of the fast screen (same contract as
/// `solve_affine_fifo_sorted`).
[[nodiscard]] ScenarioSolutionD solve_affine_fifo_fast_sorted(
    const StarPlatform& platform, std::span<const std::size_t> participants,
    const AffineCosts& costs);

}  // namespace dlsched
