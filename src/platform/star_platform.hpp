// The star platform S = {P0, P1, ..., Pp} of the paper (Figure 1): a master
// with no processing capability and p heterogeneous workers.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "platform/worker.hpp"

namespace dlsched {

class StarPlatform {
 public:
  StarPlatform() = default;
  /// Validates every worker: c > 0, w > 0, d >= 0, all three finite.
  explicit StarPlatform(std::vector<Worker> workers);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }
  [[nodiscard]] bool empty() const noexcept { return workers_.empty(); }
  [[nodiscard]] const Worker& worker(std::size_t i) const;
  [[nodiscard]] std::span<const Worker> workers() const noexcept {
    return workers_;
  }

  /// Bus network: all links identical (ci = c, di = d for every worker).
  [[nodiscard]] bool is_bus(double rel_tol = 1e-12) const noexcept;

  /// True when di / ci is the same constant z for every worker (the paper's
  /// standing assumption for Theorem 1).
  [[nodiscard]] bool has_uniform_z(double rel_tol = 1e-12) const noexcept;

  /// The common ratio z = di / ci.  Requires has_uniform_z().
  [[nodiscard]] double z() const;

  /// Worker indices sorted by non-decreasing c (ties by index -- the order
  /// Theorem 1 proves optimal for FIFO when z < 1).
  [[nodiscard]] std::vector<std::size_t> order_by_c() const;
  /// Worker indices sorted by non-increasing c (optimal FIFO send order
  /// when z > 1, by the mirror argument).
  [[nodiscard]] std::vector<std::size_t> order_by_c_desc() const;
  /// Worker indices sorted by non-decreasing w (the INC_W heuristic).
  [[nodiscard]] std::vector<std::size_t> order_by_w() const;

  /// New platform with all costs scaled: c' = c / comm_factor, etc.
  /// Factors > 1 mean "faster", matching the paper's Section 5.3.3
  /// "computation power x10" experiments.
  [[nodiscard]] StarPlatform speed_up(double comm_factor,
                                      double comp_factor) const;

  /// New platform containing only the given workers, in the given order.
  [[nodiscard]] StarPlatform subset(std::span<const std::size_t> indices) const;

  /// The mirrored platform (ci and di swapped) used for the z > 1 case.
  [[nodiscard]] StarPlatform mirrored() const;

  /// Homogeneous-links platform (a bus): ci = c, di = d, per-worker w.
  static StarPlatform bus(double c, double d, std::vector<double> w);

  /// Human-readable one-line-per-worker description.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<Worker> workers_;
};

}  // namespace dlsched
