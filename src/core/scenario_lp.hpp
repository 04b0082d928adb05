// The linear program of paper Section 2.3, generalized to any permutation
// pair (sigma_1, sigma_2) under the paper's normalization: initial messages
// back-to-back from time 0 in sigma_1 order, return messages back-to-back
// ending exactly at T = 1 in sigma_2 order.
//
//   maximize  rho = sum_i alpha_i
//   s.t. (2a) for every worker i:
//            sum_{sigma1(j) <= sigma1(i)} c_j alpha_j + w_i alpha_i + x_i
//          + sum_{sigma2(j) >= sigma2(i)} d_j alpha_j              <= 1
//        (2b) sum_i (c_i + d_i) alpha_i <= 1        [one-port]
//        (2c,d) alpha_i, x_i >= 0
//
// The idle variables x_i are pure slack: here they ARE the slack of the
// chain rows (2a) rather than explicit columns.  Modelling them as columns
// alongside the solver's own row slacks would duplicate every chain row's
// slack column, so any optimum with a non-binding chain row would carry a
// zero-reduced-cost twin and the warm-start uniqueness gate (lp/simplex.hpp)
// could never accept a seed.  A solve does not report x_i: the realized
// schedule re-derives every gap from alpha (`realize_schedule`), and
// `LpProblem::row_slack` recovers x_i exactly from the LP values.
#pragma once

#include <vector>

#include "core/scenario.hpp"
#include "lp/problem.hpp"
#include "numeric/rational.hpp"
#include "platform/star_platform.hpp"
#include "schedule/schedule.hpp"

namespace dlsched {

using numeric::Rational;

/// Result of solving one scenario exactly.
struct ScenarioSolution {
  Rational throughput;                ///< rho = sum alpha_i (load per T = 1)
  std::vector<Rational> alpha;        ///< indexed by *platform* worker id
  Scenario scenario;                  ///< the scenario that was solved
  std::size_t lp_pivots = 0;
  /// 1 when this solve was warm-started from `LpOptions::warm_basis` and
  /// the seed was accepted (0 on cold solves and cold fallbacks).
  std::size_t lp_warm_starts = 0;
  bool lp_feasible = true;            ///< false only with affine constants

  /// Workers with alpha > 0 (resource selection outcome).
  [[nodiscard]] std::vector<std::size_t> enrolled() const;
  /// alpha as doubles, platform-indexed.
  [[nodiscard]] std::vector<double> alpha_double() const;
};

/// Variations of the scheduling LP.  The defaults reproduce the paper's
/// model exactly; the extensions cover the companion papers' two-port model
/// ([7, 8] -- drop the one-port row) and the affine cost model of the
/// related work (Section 6): each message / computation additionally costs
/// a constant latency.  With latencies, every worker listed in the scenario
/// pays its constants whether or not it receives load, so resource
/// selection must be done over subsets (see core/affine.hpp).
struct LpOptions {
  bool one_port = true;          ///< false: the two-port model of [7, 8]
  double send_latency = 0.0;     ///< per initial message (affine model)
  double compute_latency = 0.0;  ///< per computation start (affine model)
  double return_latency = 0.0;   ///< per return message (affine model)

  /// Per-worker latency overrides (platform-indexed; empty = the global
  /// scalar applies to every worker).  Drawn by the latency-correlated
  /// platform generators; see core/affine.hpp.
  std::vector<double> send_latencies;
  std::vector<double> return_latencies;

  /// Warm-start seed in this LP's structural-variable space (alpha_k = k
  /// in sigma_1 position order); empty = cold solve.  Build
  /// it with `warm_basis_for` from a structurally adjacent solution.  A
  /// seed never changes the result -- the engines fall back cold whenever
  /// it does not fit -- it only reduces pivots; the double path ignores it.
  std::vector<std::size_t> warm_basis;

  /// Effective latencies of platform worker `i`.
  [[nodiscard]] double send_latency_for(std::size_t i) const {
    return send_latencies.empty() ? send_latency : send_latencies[i];
  }
  [[nodiscard]] double return_latency_for(std::size_t i) const {
    return return_latencies.empty() ? return_latency : return_latencies[i];
  }

  [[nodiscard]] bool is_affine() const noexcept {
    if (send_latency != 0.0 || compute_latency != 0.0 ||
        return_latency != 0.0) {
      return true;
    }
    for (const double v : send_latencies) {
      if (v != 0.0) return true;
    }
    for (const double v : return_latencies) {
      if (v != 0.0) return true;
    }
    return false;
  }
};

/// Warm-start seed for solving `child` on a platform where worker `w`
/// received load `parent_alpha[w]` in a structurally adjacent solve: the
/// alpha columns (in `child`'s sigma_1 numbering) of workers with positive
/// alpha.  Support-based on the *double* representation deliberately, so a
/// seed derived from a fresh exact solution and one derived from its cached
/// double form agree bit-for-bit -- warm pivot counts stay invariant across
/// cache states and execution modes.  Workers absent from `parent_alpha`
/// (platform grew) are simply not seeded.
[[nodiscard]] std::vector<std::size_t> warm_basis_for(
    const std::vector<double>& parent_alpha, const Scenario& child);

/// Builds the LP for a scenario (exact rational coefficients taken from the
/// platform's doubles losslessly).  Exposed separately so tests and
/// examples can inspect the model.
[[nodiscard]] lp::LpProblem build_scenario_lp(const StarPlatform& platform,
                                              const Scenario& scenario,
                                              const LpOptions& options = {});

/// The same LP as `build_scenario_lp(...).densify<double>()`, bit for bit,
/// built straight from the platform's doubles: no Rational model, no
/// names.  Chain coefficients are double sums from 0.0 in the exact
/// model's term order (c_j, then w_k, then d_j); a one-port coefficient is
/// the exact c_k + d_k rounded by `Rational::to_double`, which is the
/// double add unless the exact sum is too wide; a right-hand side is 1, or
/// with latencies the exact 1 - constants rounded once.  What
/// `solve_scenario_double` solves.
[[nodiscard]] lp::DenseLp<double> build_scenario_lp_double(
    const StarPlatform& platform, const Scenario& scenario,
    const LpOptions& options = {});

/// Solves the scenario LP exactly.  Throws if the LP is not optimal
/// (cannot happen in the linear model: alpha = 0 is always feasible; with
/// affine latencies the constants may make the scenario infeasible, which
/// is reported via lp_feasible = false and zero throughput).
[[nodiscard]] ScenarioSolution solve_scenario(const StarPlatform& platform,
                                              const Scenario& scenario,
                                              const LpOptions& options);
[[nodiscard]] ScenarioSolution solve_scenario(const StarPlatform& platform,
                                              const Scenario& scenario);

/// Double-precision variant for large sweeps (same model, simplex over
/// doubles).  Returns platform-indexed alphas and the throughput.  The LP
/// is built and solved in a workspace each thread owns, so once a thread
/// has solved its widest scenario, a solve allocates only the result.
struct ScenarioSolutionD {
  double throughput = 0.0;
  std::vector<double> alpha;
  Scenario scenario;
  std::size_t lp_pivots = 0;
  bool lp_feasible = true;  ///< false only with affine constants
};
[[nodiscard]] ScenarioSolutionD solve_scenario_double(
    const StarPlatform& platform, const Scenario& scenario);
/// Options-aware variant (affine constants allowed; an infeasible LP is
/// reported via lp_feasible = false, mirroring the exact path).
[[nodiscard]] ScenarioSolutionD solve_scenario_double(
    const StarPlatform& platform, const Scenario& scenario,
    const LpOptions& options);

/// Lossless lift of a double-precision LP solution into the exact shape
/// (`Rational::from_double` is exact, so `.to_double()` round-trips
/// bit-exactly).
[[nodiscard]] ScenarioSolution lift_solution(const ScenarioSolutionD& d);

/// Constructs the normalized (packed) schedule realizing a solution for a
/// horizon T (loads scale linearly with T).
[[nodiscard]] Schedule realize_schedule(const StarPlatform& platform,
                                        const ScenarioSolution& solution,
                                        double horizon = 1.0);
[[nodiscard]] Schedule realize_schedule(const StarPlatform& platform,
                                        const ScenarioSolutionD& solution,
                                        double horizon = 1.0);

}  // namespace dlsched
