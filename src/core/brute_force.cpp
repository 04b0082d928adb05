#include "core/brute_force.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>

#include "util/error.hpp"
#include "util/fan_out.hpp"

namespace dlsched {

namespace {

void check_options(const StarPlatform& platform,
                   const BruteForceOptions& options) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  DLSCHED_EXPECT(platform.size() <= options.max_workers,
                 "platform too large for exhaustive search");
  DLSCHED_EXPECT(!(options.fifo_only && options.lifo_only),
                 "fifo_only and lifo_only are mutually exclusive");
}

/// Every sigma_1 over `p` workers, in lexicographic order.  The search
/// walks one block per sigma_1, in this order.
std::vector<std::vector<std::size_t>> send_orders(std::size_t p) {
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> sigma1(p);
  std::iota(sigma1.begin(), sigma1.end(), std::size_t{0});
  do {
    orders.push_back(sigma1);
  } while (std::next_permutation(sigma1.begin(), sigma1.end()));
  return orders;
}

/// Calls `body` with every scenario of `sigma1`'s block that `options`
/// permits: the FIFO or LIFO pair alone, or every sigma_2 in
/// lexicographic order.  `body` returns false to stop the block.
template <class Body>
void walk_block(const std::vector<std::size_t>& sigma1,
                const BruteForceOptions& options, Body body) {
  if (options.fifo_only) {
    body(Scenario::fifo(sigma1));
  } else if (options.lifo_only) {
    body(Scenario::lifo(sigma1));
  } else {
    std::vector<std::size_t> sigma2(sigma1.begin(), sigma1.end());
    std::sort(sigma2.begin(), sigma2.end());
    do {
      if (!body(Scenario::general(sigma1, sigma2))) return;
    } while (std::next_permutation(sigma2.begin(), sigma2.end()));
  }
}

/// Stateful deadline check.
class Deadline {
 public:
  explicit Deadline(double seconds) : enabled_(seconds > 0.0) {
    if (enabled_) {
      end_ = std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds));
    }
  }
  [[nodiscard]] bool expired() const {
    return enabled_ && std::chrono::steady_clock::now() >= end_;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point end_;
};

/// The exhaustive search with `solve` as the scenario oracle.  The blocks
/// run side by side on free pool lanes, each keeping its own first best;
/// reducing them in sigma_1 order with a strict `>` elects the first
/// maximum of the enumeration, as a serial walk does.  An expired time
/// budget stops every block; the flag is read before each solve and set
/// only after one, so at least one scenario is evaluated.
template <class Result, class Solve>
Result search(const StarPlatform& platform, const BruteForceOptions& options,
              Solve solve) {
  using Solution = decltype(Result::best);
  struct Block {
    std::optional<Solution> best;
    std::size_t tried = 0;
  };
  check_options(platform, options);
  const std::vector<std::vector<std::size_t>> orders =
      send_orders(platform.size());
  std::vector<Block> blocks(orders.size());
  const Deadline deadline(options.time_budget_seconds);
  std::atomic<bool> expired{false};
  fan_out(blocks.size(), lane_count(0, blocks.size()), [&](std::size_t b) {
    Block& block = blocks[b];
    walk_block(orders[b], options, [&](const Scenario& scenario) {
      if (expired.load(std::memory_order_relaxed)) return false;
      Solution solution = solve(platform, scenario);
      ++block.tried;
      if (!block.best || solution.throughput > block.best->throughput) {
        block.best = std::move(solution);
      }
      if (!deadline.expired()) return true;
      expired.store(true, std::memory_order_relaxed);
      return false;
    });
  });
  Result result;
  bool have_best = false;
  for (Block& block : blocks) {
    result.scenarios_tried += block.tried;
    if (block.best &&
        (!have_best || block.best->throughput > result.best.throughput)) {
      result.best = std::move(*block.best);
      have_best = true;
    }
  }
  result.budget_exhausted = expired.load();
  DLSCHED_EXPECT(have_best, "no scenario was evaluated");
  return result;
}

}  // namespace

BruteForceResult brute_force_best(const StarPlatform& platform,
                                  const BruteForceOptions& options) {
  return search<BruteForceResult>(
      platform, options, [](const StarPlatform& pl, const Scenario& s) {
        return solve_scenario(pl, s);
      });
}

BruteForceResultD brute_force_best_double(const StarPlatform& platform,
                                          const BruteForceOptions& options) {
  return search<BruteForceResultD>(
      platform, options, [](const StarPlatform& pl, const Scenario& s) {
        return solve_scenario_double(pl, s);
      });
}

void for_each_scenario(
    const StarPlatform& platform, const BruteForceOptions& options,
    const std::function<void(const ScenarioSolution&)>& visit) {
  check_options(platform, options);
  for (const std::vector<std::size_t>& sigma1 :
       send_orders(platform.size())) {
    walk_block(sigma1, options, [&](const Scenario& scenario) {
      visit(solve_scenario(platform, scenario));
      return true;
    });
  }
}

}  // namespace dlsched
