#include "core/local_search.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/fan_out.hpp"

namespace dlsched {

namespace {

/// One climb's local optimum and its own counters.
struct Climb {
  ScenarioSolutionD best;
  std::size_t lp_evaluations = 0;
  std::size_t ascents = 0;
};

/// One steepest-ascent climb from `scenario`; returns the local optimum.
Climb climb(const StarPlatform& platform, const Scenario& scenario,
            const LocalSearchOptions& options) {
  Climb out;
  ScenarioSolutionD& current = out.best;
  current = solve_scenario_double(platform, scenario);
  ++out.lp_evaluations;
  const std::size_t q = scenario.size();
  if (q < 2) return out;

  for (std::size_t step = 0; step < options.max_steps; ++step) {
    ScenarioSolutionD best_neighbor;
    bool improved = false;

    auto consider = [&](const Scenario& candidate) {
      ScenarioSolutionD solution = solve_scenario_double(platform, candidate);
      ++out.lp_evaluations;
      if (solution.throughput >
          (improved ? best_neighbor.throughput : current.throughput) +
              1e-12) {
        best_neighbor = std::move(solution);
        improved = true;
      }
    };

    // Adjacent transpositions in sigma_1 (keeping sigma_2), unless frozen.
    if (!options.search_sigma2_only) {
      for (std::size_t i = 0; i + 1 < q; ++i) {
        Scenario candidate = current.scenario;
        std::swap(candidate.send_order[i], candidate.send_order[i + 1]);
        consider(candidate);
      }
    }
    // Adjacent transpositions in sigma_2.
    for (std::size_t i = 0; i + 1 < q; ++i) {
      Scenario candidate = current.scenario;
      std::swap(candidate.return_order[i], candidate.return_order[i + 1]);
      consider(candidate);
    }

    if (!improved) break;
    current = std::move(best_neighbor);
    ++out.ascents;
  }
  return out;
}

}  // namespace

LocalSearchResult local_search_best_pair(const StarPlatform& platform,
                                         const LocalSearchOptions& options) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  LocalSearchResult result;
  Rng rng(options.seed);

  std::vector<Scenario> starts;
  starts.push_back(Scenario::fifo(platform.order_by_c()));
  starts.push_back(Scenario::lifo(platform.order_by_c()));
  if (platform.has_uniform_z() && platform.z() > 1.0) {
    starts.push_back(Scenario::fifo(platform.order_by_c_desc()));
  }
  for (std::size_t r = 0; r < options.random_restarts; ++r) {
    starts.push_back(Scenario::general(rng.permutation(platform.size()),
                                       rng.permutation(platform.size())));
  }

  // Every start is drawn before any climb begins, so the climbs are
  // independent: they run on free pool lanes, and are reduced in start
  // order (the first best wins), whatever lane ran which.
  std::vector<Climb> climbs(starts.size());
  fan_out(starts.size(), lane_count(0, starts.size()), [&](std::size_t k) {
    climbs[k] = climb(platform, starts[k], options);
  });
  for (std::size_t k = 0; k < climbs.size(); ++k) {
    result.lp_evaluations += climbs[k].lp_evaluations;
    result.ascents += climbs[k].ascents;
    if (k == 0 || climbs[k].best.throughput > result.best.throughput) {
      result.best = std::move(climbs[k].best);
    }
  }
  return result;
}

}  // namespace dlsched
