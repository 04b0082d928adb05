#include "core/fifo_optimal.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dlsched {

FifoOptimalResult solve_fifo_optimal(const StarPlatform& platform) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  const bool uniform_z = platform.has_uniform_z();
  const double z = uniform_z ? platform.z() : 1.0;

  FifoOptimalResult result;
  result.provably_optimal = uniform_z;

  if (!uniform_z || z <= 1.0) {
    // Direct case: non-decreasing ci (Theorem 1).  For z == 1 any order is
    // optimal; non-decreasing ci is as good as any.
    const std::vector<std::size_t> order = platform.order_by_c();
    result.solution = solve_scenario(platform, Scenario::fifo(order));
    result.schedule = realize_schedule(platform, result.solution);
    return result;
  }

  // z > 1: solve the mirrored instance (z' = 1/z < 1) and flip time.
  // The mirror's FIFO schedule in non-decreasing c' = d order becomes, after
  // the flip, a FIFO schedule sending in the reversed order -- i.e.
  // non-increasing ci -- with identical loads and throughput.
  const StarPlatform mirror = platform.mirrored();
  const std::vector<std::size_t> mirror_order = mirror.order_by_c();
  const ScenarioSolution mirror_solution =
      solve_scenario(mirror, Scenario::fifo(mirror_order));

  std::vector<std::size_t> flipped_order(mirror_order.rbegin(),
                                         mirror_order.rend());
  result.mirrored = true;
  result.solution = mirror_solution;
  result.solution.scenario = Scenario::fifo(flipped_order);
  result.schedule = realize_schedule(platform, result.solution);
  return result;
}

}  // namespace dlsched
