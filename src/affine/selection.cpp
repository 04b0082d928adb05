#include "affine/selection.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "util/error.hpp"
#include "util/fan_out.hpp"

namespace dlsched::affine {

namespace {

using steady_clock = std::chrono::steady_clock;

double elapsed_since(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

/// Expands `mask` over `order` into `out` (cleared first): bit i selects
/// order[i], scanned in ascending i.  Over a non-decreasing-c order the
/// result is already in the FIFO order `solve_affine_fifo` would produce,
/// so the sorted entry points apply without a re-sort.  Shared by the
/// subset scan, the greedy prefixes and the local-search moves.
void extract_subset(std::size_t mask, std::span<const std::size_t> order,
                    std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t i = 0; (mask >> i) != 0; ++i) {
    if ((mask >> i) & std::size_t{1}) out.push_back(order[i]);
  }
}

/// Records `solution` into `result` when it is feasible and beats the
/// incumbent.  Returns true on improvement.
bool offer(AffineSelectionResult& result, ScenarioSolution solution) {
  if (!solution.lp_feasible) return false;
  if (result.feasible && solution.throughput <= result.best.throughput) {
    return false;
  }
  result.best = std::move(solution);
  result.participants = result.best.scenario.send_order;
  result.feasible = true;
  return true;
}

/// Warm-chain bookkeeping shared by the exact scans: accumulates pivot
/// counters against the most recent cold solve of the *same subset size*
/// (LP dimension equals enrolled count, so a same-size cold solve is the
/// honest yardstick -- the chain walks subsets of wildly different sizes)
/// and refreshes the parent hint for the next LP.
struct WarmChain {
  static constexpr std::size_t kNoRef = SIZE_MAX;

  bool enabled = false;
  std::vector<double> parent_alpha;  ///< hint for the next solve
  std::vector<std::size_t> cold_ref; ///< last cold pivots, by subset size

  void account(AffineSelectionResult& result,
               const ScenarioSolution& solution) {
    result.lp_pivots_total += solution.lp_pivots;
    const std::size_t size = solution.scenario.send_order.size();
    if (cold_ref.size() <= size) cold_ref.resize(size + 1, kNoRef);
    if (solution.lp_warm_starts > 0) {
      ++result.lp_warm_starts;
      if (cold_ref[size] != kNoRef && cold_ref[size] > solution.lp_pivots) {
        result.lp_pivots_saved += cold_ref[size] - solution.lp_pivots;
      }
    } else {
      cold_ref[size] = solution.lp_pivots;
    }
    if (enabled) parent_alpha = solution.alpha_double();
  }

  [[nodiscard]] const std::vector<double>& hint() const {
    static const std::vector<double> kCold;
    return enabled ? parent_alpha : kCold;
  }
};

// ------------------------------------------------- fast (double) screen --
//
// Precision::Fast evaluates every candidate subset with the double simplex
// first, then re-solves exactly only the candidates whose fast throughput
// the margin cannot separate from the fast optimum.  Because the final
// offer() comparisons are always between exact rationals, the winner (and
// its solution) is bit-identical to the all-exact scan as long as the
// double LP's throughput error stays below the margin -- a ~1e-12 relative
// error against a 1e-6 relative / 1e-7 absolute band.

/// One fast-screened candidate, in scan order.
struct FastCandidate {
  std::vector<std::size_t> subset;
  double throughput = 0.0;
  bool feasible = false;
  std::optional<ScenarioSolution> exact;  ///< cached when already re-solved
};

double fast_margin(double best) {
  return std::max(1e-7, 1e-6 * std::abs(best));
}

/// Lower bound on the exact throughput behind a fast one: usable as a
/// pruning floor under the same error model as the margin screen.
double fast_floor(double fast_throughput) {
  return fast_throughput - fast_margin(fast_throughput);
}

/// Exact solve of a fast scan's candidate, charged to `exact_resolves` and
/// to `into`'s pivot total.
void resolve_exactly(const StarPlatform& platform, const AffineCosts& costs,
                     FastCandidate& candidate, AffineSelectionResult& into,
                     std::size_t& exact_resolves) {
  if (candidate.exact) return;
  candidate.exact = solve_affine_fifo(platform, candidate.subset, costs);
  ++exact_resolves;
  into.lp_pivots_total += candidate.exact->lp_pivots;
}

/// An exact throughput no candidate of a scan can beat, solved on first
/// use.  With linear costs it is rho(all workers): adding a worker at
/// alpha = 0 never lowers the FIFO optimum, because the newcomer's own
/// chain row is dominated by its FIFO neighbour's row and every other row
/// is unchanged, so rho(S) <= rho(S + w) <= rho(all).  Affine costs have no
/// ceiling: an enrolled worker's constants cost horizon even at alpha = 0.
class Ceiling {
 public:
  Ceiling(const StarPlatform& platform, const AffineCosts& costs)
      : platform_(platform), costs_(costs), applies_(!costs.is_affine()) {}

  /// True when `value` equals the ceiling.  The first call solves it, in
  /// the full-set candidate among `candidates` when there is one, so that
  /// candidate's own re-solve is free.
  bool reached_by(const Rational& value,
                  std::vector<FastCandidate>& candidates,
                  AffineSelectionResult& into, std::size_t& exact_resolves) {
    if (!applies_) return false;
    if (!value_) {
      const std::size_t p = platform_.size();
      FastCandidate everyone{std::vector<std::size_t>(p), 0.0, true,
                             std::nullopt};
      std::iota(everyone.subset.begin(), everyone.subset.end(),
                std::size_t{0});
      const auto full = std::find_if(
          candidates.begin(), candidates.end(),
          [&](const FastCandidate& c) { return c.subset.size() == p; });
      FastCandidate& solved = full == candidates.end() ? everyone : *full;
      resolve_exactly(platform_, costs_, solved, into, exact_resolves);
      value_ = solved.exact->throughput;
    }
    return value == *value_;
  }

 private:
  const StarPlatform& platform_;
  const AffineCosts& costs_;
  bool applies_;
  std::optional<Rational> value_;
};

/// Exact re-solve of every candidate the margin cannot rule out, offered
/// to `into` in scan order (so ties resolve exactly as the all-exact scan
/// does).  Fast-infeasible candidates are re-solved only when every
/// throughput in sight is within noise of zero: an exactly-feasible subset
/// the double LP rejects must have near-boundary constants, which force
/// alpha (and hence the throughput) to ~0.  Stops once the incumbent
/// equals the ceiling: no later contender can be strictly better, and
/// offer() keeps the first maximum.  Returns the index of the last
/// candidate that improved `into`, or SIZE_MAX.
std::size_t resolve_margin_set(const StarPlatform& platform,
                               const AffineCosts& costs,
                               std::vector<FastCandidate>& candidates,
                               AffineSelectionResult& into,
                               std::size_t& exact_resolves,
                               Ceiling& ceiling) {
  double best = into.feasible ? into.best.throughput.to_double() : 0.0;
  bool any_feasible = into.feasible;
  for (const FastCandidate& c : candidates) {
    if (c.feasible) {
      any_feasible = true;
      best = std::max(best, c.throughput);
    }
  }
  const double margin = fast_margin(best);
  const double cut = best - margin;
  std::size_t last_improver = SIZE_MAX;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    FastCandidate& c = candidates[i];
    const bool contender =
        c.feasible ? c.throughput >= cut : (!any_feasible || best <= margin);
    if (!contender) continue;
    if (into.feasible && ceiling.reached_by(into.best.throughput, candidates,
                                            into, exact_resolves)) {
      break;
    }
    resolve_exactly(platform, costs, c, into, exact_resolves);
    // Copied, not moved: the ceiling may still read the full set's solution.
    if (offer(into, *c.exact)) last_improver = i;
  }
  return last_improver;
}

// --------------------------------------------------- one-port upper bound --

/// Safety slack for the double-precision bound evaluation: the computed
/// bound is inflated by this much (relative and absolute) before the
/// pruning comparison, and incumbent values are deflated by the same
/// amount when they become pruning floors.  The knapsack fill is a dozen
/// well-conditioned positive adds/multiplies (~1e-14 relative error), so
/// 1e-9 leaves orders of magnitude of headroom -- pruning stays sound, it
/// merely keeps a hair's width of sub-incumbent subsets alive.
constexpr double kBoundSlack = 1e-9;

/// Per-position constants of the knapsack upper bound, over a fixed worker
/// order (doubles; soundness comes from kBoundSlack):
///   lat[i] = send + return latency of worker order[i],
///   cd[i]  = c_i + d_i, its coefficient in the one-port budget row,
///   cap[i] = (1 - sl_i - cl - rl_i) / (c_i + w_i + d_i), an upper bound
///            on alpha_i valid in EVERY subset containing the worker: its
///            own chain row carries c_i alpha_i (sigma_1 prefix), w_i
///            alpha_i, d_i alpha_i (return suffix) and the worker's own
///            three latency constants, so dropping the other nonnegative
///            terms leaves (c_i + w_i + d_i) alpha_i <= 1 - sl_i - cl - rl_i.
/// `by_cd` lists positions by nondecreasing cd for the greedy fill.
struct BoundTable {
  std::vector<double> lat;
  std::vector<double> cd;
  std::vector<double> cap;
  std::vector<std::size_t> by_cd;
};

BoundTable make_bound_table(const StarPlatform& platform,
                            const AffineCosts& costs,
                            std::span<const std::size_t> order) {
  BoundTable table;
  const std::size_t p = order.size();
  table.lat.reserve(p);
  table.cd.reserve(p);
  table.cap.reserve(p);
  for (const std::size_t w : order) {
    const double sl = costs.send_latency_for(w);
    const double rl = costs.return_latency_for(w);
    const Worker& worker = platform.worker(w);
    table.lat.push_back(sl + rl);
    table.cd.push_back(worker.c + worker.d);
    const double head = 1.0 - sl - costs.compute_latency - rl;
    const double denom = worker.c + worker.w + worker.d;
    // denom == 0 yields +inf, which simply disables pruning via this cap.
    table.cap.push_back(head > 0.0 ? head / denom : 0.0);
  }
  table.by_cd.resize(p);
  for (std::size_t i = 0; i < p; ++i) table.by_cd[i] = i;
  std::stable_sort(table.by_cd.begin(), table.by_cd.end(),
                   [&](std::size_t a, std::size_t b) {
                     return table.cd[a] < table.cd[b];
                   });
  return table;
}

/// True when the one-port knapsack bound proves rho(S) < prune_below.
/// The bound is the LP value of   max sum alpha_i  s.t.
/// sum cd_i alpha_i <= 1 - L(S), 0 <= alpha_i <= cap_i   -- a relaxation
/// of the subset's LP (one-port row plus the per-worker chain caps), so it
/// dominates rho(S); the greedy cheapest-cd-first fill solves it exactly.
/// Inflated by kBoundSlack before the comparison: pruning only ever
/// removes subsets strictly below the floor, which can change neither the
/// winner (it has rho = floor or better) nor the feasible flag (the
/// floor's witness itself survives).
bool bounded_out(std::size_t mask, const BoundTable& table,
                 double prune_below) {
  double budget = 1.0;
  for (std::size_t i = 0; (mask >> i) != 0; ++i) {
    if ((mask >> i) & std::size_t{1}) budget -= table.lat[i];
  }
  double total = 0.0;
  for (const std::size_t i : table.by_cd) {
    if (!((mask >> i) & std::size_t{1})) continue;
    if (budget <= 0.0) break;
    const double cap = table.cap[i];
    if (cap <= 0.0) continue;
    const double cd = table.cd[i];
    if (cd <= 0.0) {
      total += cap;  // free capacity (degenerate data); likely disables
      continue;      // pruning, which is the safe direction
    }
    double take = budget / cd;
    if (take > cap) take = cap;
    total += take;
    budget -= take * cd;
  }
  return total * (1.0 + kBoundSlack) + kBoundSlack < prune_below;
}

/// Conservative double lower bound on an exact incumbent value, usable as
/// a `prune_below` floor against the inflated knapsack bound.
double floor_of(const Rational& value) {
  return value.to_double() * (1.0 - kBoundSlack) - kBoundSlack;
}

// ------------------------------------------------- fast scan in blocks --

/// Masks per block of the fast scan's Gray walk.  A constant, so the
/// blocks, and every counter, are the same whatever the lane count; a
/// scan with p <= 9 is a single block.
constexpr std::size_t kFastScanBlock = 512;

/// One block's fast-screened candidates, in walk order, and its counts.
struct FastBlock {
  std::vector<FastCandidate> candidates;
  std::size_t tried = 0;
  std::size_t pruned = 0;
};

/// The fast scan's Gray walk over `order`, in blocks of kFastScanBlock
/// masks run side by side on free pool lanes.  Each block prunes against
/// `floor` raised by its own candidates only, so it keeps every subset the
/// serial walk keeps, and perhaps a few that a floor from an earlier block
/// would have pruned.  Those have rho below that floor, hence fast
/// throughputs below the margin cut, so the margin set that
/// `resolve_margin_set` re-solves, and the winner, are the serial walk's.
/// Returns the candidates in walk order; adds the counts to `result`.
std::vector<FastCandidate> fast_scan(const StarPlatform& platform,
                                     const AffineCosts& costs,
                                     const AffineSubsetOptions& options,
                                     std::span<const std::size_t> order,
                                     const BoundTable& bounds, double floor,
                                     steady_clock::time_point start,
                                     AffineSelectionResult& result) {
  const std::size_t end = std::size_t{1} << order.size();
  std::vector<FastBlock> blocks((end + kFastScanBlock - 1) / kFastScanBlock);
  std::atomic<bool> expired{false};
  fan_out(blocks.size(), lane_count(0, blocks.size()), [&](std::size_t b) {
    FastBlock& block = blocks[b];
    double prune_below = floor;
    std::vector<std::size_t> subset;  // one buffer reused across the block
    subset.reserve(order.size());
    const std::size_t last = std::min(end, (b + 1) * kFastScanBlock);
    for (std::size_t n = std::max<std::size_t>(1, b * kFastScanBlock);
         n < last; ++n) {
      if (options.time_budget_seconds > 0.0 &&
          (expired.load(std::memory_order_relaxed) ||
           elapsed_since(start) > options.time_budget_seconds)) {
        expired.store(true, std::memory_order_relaxed);
        break;
      }
      ++block.tried;
      const std::size_t mask = n ^ (n >> 1);
      if (options.prune && bounded_out(mask, bounds, prune_below)) {
        ++block.pruned;
        continue;
      }
      extract_subset(mask, order, subset);
      const ScenarioSolutionD fast =
          solve_affine_fifo_fast_sorted(platform, subset, costs);
      if (fast.lp_feasible) {
        prune_below = std::max(prune_below, fast_floor(fast.throughput));
      }
      block.candidates.push_back(
          {subset, fast.throughput, fast.lp_feasible, std::nullopt});
    }
  });
  std::vector<FastCandidate> candidates;
  for (FastBlock& block : blocks) {
    result.subsets_tried += block.tried;
    result.subsets_pruned += block.pruned;
    std::move(block.candidates.begin(), block.candidates.end(),
              std::back_inserter(candidates));
  }
  result.budget_exhausted = expired.load();
  return candidates;
}

}  // namespace

AffineSelectionResult solve_affine_fifo_best_subset(
    const StarPlatform& platform, const AffineCosts& costs,
    const AffineSubsetOptions& options) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  DLSCHED_EXPECT(platform.size() <= options.max_workers,
                 "platform too large for subset enumeration");
  DLSCHED_EXPECT(
      platform.size() <
          static_cast<std::size_t>(std::numeric_limits<std::size_t>::digits),
      "subset enumeration masks require p < bits(size_t)");
  const auto start = steady_clock::now();
  AffineSelectionResult result;
  const std::size_t p = platform.size();
  // Enumerate over the non-decreasing-c order so every extracted subset is
  // already in FIFO order (extraction keeps ascending positions, and
  // order_by_c is a stable sort -- ties keep ascending platform ids, the
  // same order the stable re-sort of the unsorted entry point produces).
  const std::vector<std::size_t> order = platform.order_by_c();
  const BoundTable bounds = make_bound_table(platform, costs, order);
  // Subsets whose (inflated) knapsack bound lands strictly below this are
  // skipped; starts at -inf (nothing prunable) and ratchets up with every
  // improvement -- from the prefix priming below and from each offer().
  double prune_below = -std::numeric_limits<double>::infinity();
  // Raw double view of the best exact value seen (floor or incumbent),
  // driving the margin screen's cut.
  double best_seen = -std::numeric_limits<double>::infinity();
  // Prefix priming: the optimal subset is usually (one move away from) a
  // prefix of the non-decreasing-c order, so solving the p prefixes first
  // -- one tight warm chain, each step adds one worker -- buys a
  // near-optimal pruning floor for the whole scan at the cost of p LPs.
  // The primed solutions are deliberately NOT offered as incumbents: the
  // floor only prunes subsets *strictly* below it, so the Gray walk still
  // elects exactly the winner the plain scan would (ties included), and
  // the floor's own witness survives to be re-solved in place.  The fast
  // scan primes from the double prefixes instead: their throughputs less
  // the margin are exact lower bounds under the screen's error model.
  if (options.prune && options.use_fast_lp) {
    std::vector<std::size_t> prefix;
    prefix.reserve(p);
    for (std::size_t k = 0; k < p; ++k) {
      prefix.push_back(order[k]);
      const ScenarioSolutionD fast =
          solve_affine_fifo_fast_sorted(platform, prefix, costs);
      if (fast.lp_feasible) {
        prune_below = std::max(prune_below, fast_floor(fast.throughput));
      }
    }
  } else if (options.prune) {
    WarmChain prefix_chain;
    prefix_chain.enabled = options.warm_start;
    std::vector<std::size_t> prefix;
    prefix.reserve(p);
    for (std::size_t k = 0; k < p; ++k) {
      prefix.push_back(order[k]);
      const ScenarioSolution solution = solve_affine_fifo_sorted(
          platform, prefix, costs, prefix_chain.hint());
      prefix_chain.account(result, solution);
      if (solution.lp_feasible) {
        prune_below = std::max(prune_below, floor_of(solution.throughput));
        best_seen = std::max(best_seen, solution.throughput.to_double());
      }
    }
  }
  // Exact and fast scans walk the same Gray code, so every mode ranks
  // ties in the same enumeration order.
  if (options.use_fast_lp) {
    std::vector<FastCandidate> candidates = fast_scan(
        platform, costs, options, order, bounds, prune_below, start, result);
    Ceiling ceiling(platform, costs);
    resolve_margin_set(platform, costs, candidates, result,
                       result.exact_resolves, ceiling);
    return result;
  }
  // Gray-code walk: consecutive masks differ by exactly one worker, so the
  // previous LP is structurally adjacent to the next one -- the tightest
  // possible parent for the warm-start seed.
  WarmChain chain;
  chain.enabled = options.warm_start;
  std::vector<std::size_t> subset;  // one buffer reused across all masks
  subset.reserve(p);
  for (std::size_t n = 1; n < (std::size_t{1} << p); ++n) {
    const std::size_t mask = n ^ (n >> 1);
    if (options.time_budget_seconds > 0.0 &&
        elapsed_since(start) > options.time_budget_seconds) {
      result.budget_exhausted = true;
      break;
    }
    // Pruned subsets still count as tried (considered): subsets_tried
    // stays the enumeration count, identical across the exact and fast
    // paths; the LPs actually solved are subsets_tried - subsets_pruned.
    ++result.subsets_tried;
    // The floor prunes only subsets strictly below some subset's exact
    // value, which can be neither the winner nor tie with it.
    if (options.prune && bounded_out(mask, bounds, prune_below)) {
      ++result.subsets_pruned;
      continue;
    }
    extract_subset(mask, order, subset);
    // Margin screen: an exact value at least `best_seen` already exists,
    // so a candidate whose double throughput cannot reach it even with
    // the safety margin added back can be neither the winner nor a tie --
    // the same trust placed in the double LP as use_fast_lp's batch
    // screen, spent inline so the incumbent keeps ratcheting.
    if (options.screen && best_seen > fast_margin(best_seen)) {
      const ScenarioSolutionD fast =
          solve_affine_fifo_fast_sorted(platform, subset, costs);
      if (!fast.lp_feasible ||
          fast.throughput < best_seen - fast_margin(best_seen)) {
        ++result.subsets_screened;
        continue;
      }
    }
    ScenarioSolution solution =
        solve_affine_fifo_sorted(platform, subset, costs, chain.hint());
    chain.account(result, solution);
    if (offer(result, std::move(solution))) {
      prune_below = std::max(prune_below, floor_of(result.best.throughput));
      best_seen = std::max(best_seen, result.best.throughput.to_double());
    }
  }
  return result;
}

AffineSelectionResult solve_affine_fifo_best_subset(
    const StarPlatform& platform, const AffineCosts& costs,
    std::size_t max_workers, double time_budget_seconds, bool use_fast_lp) {
  AffineSubsetOptions options;
  options.max_workers = max_workers;
  options.time_budget_seconds = time_budget_seconds;
  options.use_fast_lp = use_fast_lp;
  return solve_affine_fifo_best_subset(platform, costs, options);
}

namespace {

/// The greedy prefix scan; `ceiling` is shared with the local search that
/// starts from it.
AffineSelectionResult greedy_scan(const StarPlatform& platform,
                                  const AffineCosts& costs, bool use_fast_lp,
                                  Ceiling& ceiling) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  const std::vector<std::size_t> order = platform.order_by_c();
  AffineSelectionResult result;
  std::vector<FastCandidate> candidates;
  WarmChain chain;
  // Prefix k and prefix k+1 are adjacent, so the exact scan warm-chains
  // them just like the subset walk does.
  chain.enabled = !use_fast_lp;
  for (std::size_t k = 1; k <= order.size(); ++k) {
    const std::span<const std::size_t> prefix(order.data(), k);
    ++result.subsets_tried;
    if (use_fast_lp) {
      const ScenarioSolutionD fast =
          solve_affine_fifo_fast_sorted(platform, prefix, costs);
      if (fast.lp_feasible) {
        FastCandidate candidate;
        candidate.subset.assign(prefix.begin(), prefix.end());
        candidate.throughput = fast.throughput;
        candidate.feasible = true;
        candidates.push_back(std::move(candidate));
        continue;
      }
      // The early stop must follow *exact* feasibility: near-boundary
      // constants can fool the double LP either way.
      ++result.exact_resolves;
      ScenarioSolution exact =
          solve_affine_fifo_sorted(platform, prefix, costs);
      result.lp_pivots_total += exact.lp_pivots;
      if (!exact.lp_feasible) break;  // longer prefixes only add constants
      FastCandidate candidate;
      candidate.subset.assign(prefix.begin(), prefix.end());
      candidate.throughput = exact.throughput.to_double();
      candidate.feasible = true;
      candidate.exact = std::move(exact);
      candidates.push_back(std::move(candidate));
      continue;
    }
    ScenarioSolution solution =
        solve_affine_fifo_sorted(platform, prefix, costs, chain.hint());
    chain.account(result, solution);
    if (!solution.lp_feasible) break;  // longer prefixes only add constants
    offer(result, std::move(solution));
  }
  if (use_fast_lp) {
    resolve_margin_set(platform, costs, candidates, result,
                       result.exact_resolves, ceiling);
  }
  return result;
}

}  // namespace

AffineSelectionResult solve_affine_fifo_greedy(const StarPlatform& platform,
                                               const AffineCosts& costs,
                                               bool use_fast_lp) {
  Ceiling ceiling(platform, costs);
  return greedy_scan(platform, costs, use_fast_lp, ceiling);
}

AffineSelectionResult solve_affine_fifo_local_search(
    const StarPlatform& platform, const AffineCosts& costs,
    const AffineLocalSearchOptions& options) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  DLSCHED_EXPECT(
      platform.size() <
          static_cast<std::size_t>(std::numeric_limits<std::size_t>::digits),
      "local-search move masks require p < bits(size_t)");
  const auto start = steady_clock::now();
  const std::size_t p = platform.size();
  const auto out_of_budget = [&] {
    return options.time_budget_seconds > 0.0 &&
           elapsed_since(start) > options.time_budget_seconds;
  };

  // Candidate sets are platform-id masks expanded through the shared
  // extractor over the identity order (ascending ids, as before).
  std::vector<std::size_t> identity(p);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  std::vector<std::size_t> candidate_buf;
  candidate_buf.reserve(p);

  // Seed with the greedy prefix; when even the cheapest-c prefix is
  // infeasible (per-worker latencies can sink worker 1 but not worker 5),
  // fall back to scanning the singletons.
  Ceiling ceiling(platform, costs);
  AffineSelectionResult result =
      greedy_scan(platform, costs, options.use_fast_lp, ceiling);
  if (!result.feasible) {
    std::vector<FastCandidate> singletons;
    for (std::size_t i = 0; i < p; ++i) {
      ++result.subsets_tried;
      if (options.use_fast_lp) {
        const ScenarioSolutionD fast =
            solve_affine_fifo_fast(platform, {i}, costs);
        singletons.push_back(
            {{i}, fast.throughput, fast.lp_feasible, std::nullopt});
        continue;
      }
      ScenarioSolution solution = solve_affine_fifo(platform, {i}, costs);
      result.lp_pivots_total += solution.lp_pivots;
      offer(result, std::move(solution));
    }
    if (options.use_fast_lp) {
      resolve_margin_set(platform, costs, singletons, result,
                         result.exact_resolves, ceiling);
    }
    if (!result.feasible) return result;
  }

  std::size_t member_mask = 0;
  for (const std::size_t w : result.participants) {
    member_mask |= std::size_t{1} << w;
  }
  const auto member = [&](std::size_t i) {
    return ((member_mask >> i) & std::size_t{1}) != 0;
  };

  // Best-improvement hill climbing over add / drop / swap moves.  The scan
  // order is fixed, so the search is deterministic.  Consecutive sweeps
  // revisit many subsets (this sweep's drop(y) is the last sweep's
  // swap(y -> x)); a subset seen before can never beat an incumbent that
  // has only improved since, so each LP is solved at most once.
  std::set<std::size_t> seen;
  for (std::size_t step = 0; step < options.max_steps; ++step) {
    AffineSelectionResult round = result;  // incumbent to beat this sweep
    std::optional<std::pair<std::size_t, std::size_t>> best_move;
    std::vector<FastCandidate> candidates;
    std::vector<std::pair<std::size_t, std::size_t>> moves;
    // Every move differs from the sweep incumbent by at most two workers,
    // so the incumbent's alpha support is the natural warm-start parent
    // for each exact evaluation of the sweep.
    const std::vector<double> parent_alpha =
        (options.warm_start && !options.use_fast_lp)
            ? result.best.alpha_double()
            : std::vector<double>{};
    const auto consider = [&](std::size_t drop, std::size_t add) {
      // drop == p: pure add; add == p: pure drop.
      std::size_t mask = member_mask;
      if (drop < p) mask &= ~(std::size_t{1} << drop);
      if (add < p) mask |= std::size_t{1} << add;
      if (mask == 0 || !seen.insert(mask).second) return;
      extract_subset(mask, identity, candidate_buf);
      ++result.subsets_tried;
      if (options.use_fast_lp) {
        const ScenarioSolutionD fast =
            solve_affine_fifo_fast(platform, candidate_buf, costs);
        candidates.push_back({candidate_buf, fast.throughput,
                              fast.lp_feasible, std::nullopt});
        moves.emplace_back(drop, add);
        return;
      }
      ScenarioSolution solution =
          solve_affine_fifo(platform, candidate_buf, costs, parent_alpha);
      result.lp_pivots_total += solution.lp_pivots;
      if (solution.lp_warm_starts > 0) ++result.lp_warm_starts;
      if (offer(round, std::move(solution))) {
        best_move = {drop, add};
      }
    };
    for (std::size_t i = 0; i < p && !out_of_budget(); ++i) {
      if (!member(i)) {
        consider(p, i);  // add i
        continue;
      }
      consider(i, p);  // drop i
      for (std::size_t j = 0; j < p; ++j) {
        if (member(j)) continue;
        consider(i, j);  // swap i -> j
        if (out_of_budget()) break;
      }
    }
    if (options.use_fast_lp) {
      // The sweep's winning move is the last candidate whose exact
      // throughput improves the round incumbent -- the same "first
      // occurrence of the maximum" the all-exact scan picks, because the
      // margin set is re-offered in the original scan order.
      const std::size_t idx =
          resolve_margin_set(platform, costs, candidates, round,
                             result.exact_resolves, ceiling);
      if (idx != SIZE_MAX) best_move = moves[idx];
    }
    if (out_of_budget()) {
      result.budget_exhausted = true;
      // A completed evaluation may still have improved the incumbent.
    }
    if (!best_move) {
      round.subsets_tried = result.subsets_tried;
      round.exact_resolves = result.exact_resolves;
      round.lp_pivots_total = result.lp_pivots_total;
      round.lp_warm_starts = result.lp_warm_starts;
      round.lp_pivots_saved = result.lp_pivots_saved;
      round.budget_exhausted = result.budget_exhausted;
      return round;
    }
    const auto [drop, add] = *best_move;
    if (drop < p) member_mask &= ~(std::size_t{1} << drop);
    if (add < p) member_mask |= std::size_t{1} << add;
    round.subsets_tried = result.subsets_tried;
    round.exact_resolves = result.exact_resolves;
    round.lp_pivots_total = result.lp_pivots_total;
    round.lp_warm_starts = result.lp_warm_starts;
    round.lp_pivots_saved = result.lp_pivots_saved;
    round.budget_exhausted = result.budget_exhausted;
    result = std::move(round);
    if (result.budget_exhausted) break;
  }
  return result;
}

}  // namespace dlsched::affine
