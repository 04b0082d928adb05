#include "core/affine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dlsched {

bool AffineCosts::is_affine() const noexcept {
  if (send_latency != 0.0 || compute_latency != 0.0 ||
      return_latency != 0.0) {
    return true;
  }
  const auto any_nonzero = [](const std::vector<double>& values) {
    return std::any_of(values.begin(), values.end(),
                       [](double v) { return v != 0.0; });
  };
  return any_nonzero(send_latency_per_worker) ||
         any_nonzero(return_latency_per_worker);
}

namespace {

/// Shared precondition checks (both precisions, both entry shapes).
void check_affine_inputs(const StarPlatform& platform,
                         std::span<const std::size_t> participants,
                         const AffineCosts& costs) {
  DLSCHED_EXPECT(!participants.empty(), "no participants");
  DLSCHED_EXPECT(costs.send_latency_per_worker.empty() ||
                     costs.send_latency_per_worker.size() == platform.size(),
                 "per-worker send latencies must be platform-indexed");
  DLSCHED_EXPECT(costs.return_latency_per_worker.empty() ||
                     costs.return_latency_per_worker.size() ==
                         platform.size(),
                 "per-worker return latencies must be platform-indexed");
}

/// Theorem 1 ordering: non-decreasing c among the participants (the
/// natural heuristic remains the FIFO order under affine costs).
std::vector<std::size_t> fifo_participants(
    const StarPlatform& platform, std::vector<std::size_t> participants,
    const AffineCosts& costs) {
  check_affine_inputs(platform, participants, costs);
  std::stable_sort(participants.begin(), participants.end(),
                   [&](std::size_t a, std::size_t b) {
                     return platform.worker(a).c < platform.worker(b).c;
                   });
  return participants;
}

void check_sorted(const StarPlatform& platform,
                  std::span<const std::size_t> participants) {
  DLSCHED_EXPECT(
      std::is_sorted(participants.begin(), participants.end(),
                     [&](std::size_t a, std::size_t b) {
                       return platform.worker(a).c < platform.worker(b).c;
                     }),
      "participants must already be in non-decreasing-c order");
}

/// Exact solve of a presorted FIFO scenario.
ScenarioSolution solve_sorted(const StarPlatform& platform,
                              std::span<const std::size_t> participants,
                              const AffineCosts& costs) {
  return solve_scenario(platform, Scenario::fifo(participants),
                        costs.lp_options());
}

}  // namespace

ScenarioSolution solve_affine_fifo(const StarPlatform& platform,
                                   std::vector<std::size_t> participants,
                                   const AffineCosts& costs) {
  return solve_sorted(
      platform, fifo_participants(platform, std::move(participants), costs),
      costs);
}

ScenarioSolution solve_affine_fifo_sorted(
    const StarPlatform& platform, std::span<const std::size_t> participants,
    const AffineCosts& costs) {
  check_affine_inputs(platform, participants, costs);
  check_sorted(platform, participants);
  return solve_sorted(platform, participants, costs);
}

ScenarioSolutionD solve_affine_fifo_fast(const StarPlatform& platform,
                                         std::vector<std::size_t> participants,
                                         const AffineCosts& costs) {
  return solve_scenario_double(
      platform,
      Scenario::fifo(
          fifo_participants(platform, std::move(participants), costs)),
      costs.lp_options());
}

ScenarioSolutionD solve_affine_fifo_fast_sorted(
    const StarPlatform& platform, std::span<const std::size_t> participants,
    const AffineCosts& costs) {
  check_affine_inputs(platform, participants, costs);
  check_sorted(platform, participants);
  return solve_scenario_double(platform, Scenario::fifo(participants),
                               costs.lp_options());
}

}  // namespace dlsched
