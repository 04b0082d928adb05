// Shared machinery of the figure-reproduction benches (paper Section 5).
//
// Every experiment follows the paper's template: generate an ensemble of
// random platforms from speed factors in [1, 10], schedule M = 1000 matrix
// products with each heuristic via the LP, round to integral tasks, and
// execute "for real" -- here on the discrete-event simulator with a
// cluster-like noise model standing in for the MPI testbed.  Results are
// normalized by the INC_C LP prediction, exactly like the paper's plots.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/heuristics.hpp"
#include "platform/generators.hpp"
#include "platform/matrix_app.hpp"
#include "sim/noise.hpp"
#include "util/rng.hpp"

namespace dlsched::experiments {

/// Experiment-wide constants (paper Section 5.1).
struct FigureConfig {
  std::uint64_t total_tasks = 1000;     ///< M
  std::size_t workers = 11;             ///< 12-node cluster: 1 master + 11
  std::size_t platforms = 50;           ///< ensemble size per data point
  std::uint64_t seed = 20061408;        ///< base seed (deterministic)
  double comm_speed_up = 1.0;           ///< Figure 13(b) uses 10
  double comp_speed_up = 1.0;           ///< Figure 13(a) uses 10
  /// Lanes for the ensemble on the shared helper pool (util/fan_out.hpp;
  /// 0 = hardware concurrency).  Results are bit-identical regardless of
  /// lane count: per-trial seeds are derived up front and trial results
  /// folded in trial order.
  std::size_t threads = 0;
};

/// A generator of per-platform speed factors.
using SpeedGenerator =
    std::function<std::vector<WorkerSpeeds>(std::size_t, Rng&)>;

/// One heuristic's outcome on one platform.
struct HeuristicTimes {
  double lp = 0.0;    ///< LP-predicted makespan for M tasks
  double real = 0.0;  ///< DES-with-noise makespan (integral tasks)
};

/// Schedules and "executes" one heuristic on one platform.
[[nodiscard]] HeuristicTimes run_heuristic(const StarPlatform& platform,
                                           Heuristic heuristic,
                                           std::uint64_t total_tasks,
                                           std::uint64_t noise_seed);

/// One row of a Figures 10-13 style table: the six normalized series.
struct EnsembleRow {
  std::size_t matrix_size = 0;
  double inc_c_lp = 0.0;        ///< absolute seconds (the normalizer)
  double inc_c_real_ratio = 0.0;
  double inc_w_lp_ratio = 0.0;
  double inc_w_real_ratio = 0.0;
  double lifo_lp_ratio = 0.0;
  double lifo_real_ratio = 0.0;
};

/// Runs the full ensemble for one matrix size.  The engine's Ensemble kind
/// (experiments/engine.hpp) drives this per spec and handles presentation.
[[nodiscard]] EnsembleRow run_ensemble(const FigureConfig& config,
                                       const SpeedGenerator& generator,
                                       std::size_t matrix_size,
                                       bool include_inc_w);

}  // namespace dlsched::experiments
