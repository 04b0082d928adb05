#include "affine/solvers.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "affine/realization.hpp"
#include "affine/replay.hpp"
#include "affine/selection.hpp"
#include "core/solver.hpp"
#include "util/error.hpp"

namespace dlsched::affine {

namespace {

/// The fast path accepts a validated-double timeline only when the DES
/// replay lands within the same bound the CI certificate gates on.
constexpr double kFastReplayRelError = 1e-9;

/// Shared tail for the affine solvers.  In the linear special case the
/// ordinary packed schedule is realized; under real affine constants the
/// solution is laid out with explicit latency segments, re-checked by the
/// independent validator, and replayed on the DES engine -- the simulated
/// makespan must land on the LP horizon, and the deviation travels in the
/// result for the sweeps and CI to gate on.
///
/// With `allow_failure` (the Precision::Fast path, whose solution comes
/// from the double LP) a validation or replay miss returns false instead
/// of throwing, so the caller can fall back to the exact LP.
bool finish_affine_checked(const SolveRequest& request, SolveResult& out,
                           bool allow_failure) {
  const StarPlatform& platform = request.platform;
  if (!out.solution.lp_feasible) {
    out.notes = "affine constants alone exceed the horizon: infeasible "
                "(lp_feasible = false)";
    return true;  // no schedule to realize; a clean outcome
  }
  if (!request.costs.is_affine()) {
    out.schedule = realize_schedule(platform, out.solution, request.horizon);
    return true;
  }
  const AffineRealization realization =
      realize_affine(platform, out.solution, request.costs, request.horizon);
  const ValidationReport report =
      validate_affine(platform, realization, request.costs);
  if (!report.ok) {
    if (allow_failure) return false;
    DLSCHED_EXPECT(report.ok, "affine realization failed validation: " +
                                  report.violations.front());
  }
  const ReplayResult replay = replay_affine(platform, realization);
  if (allow_failure && replay.rel_error > kFastReplayRelError) return false;
  out.replayed = true;
  out.replay_makespan = replay.makespan;
  out.replay_rel_error = replay.rel_error;
  std::ostringstream notes;
  notes << "affine timeline validated; DES replay makespan "
        << replay.makespan << " vs horizon " << replay.expected
        << " (rel error " << replay.rel_error
        << "); latencies are outside the linear Schedule model, so no "
           "packed Schedule is attached";
  out.notes = notes.str();
  return true;
}

void finish_affine(const SolveRequest& request, SolveResult& out) {
  finish_affine_checked(request, out, /*allow_failure=*/false);
}

/// Fast-LP gate of the selection solvers: under Precision::Fast they rank
/// candidates with the double LP and confirm the winner exactly, so their
/// answer is the exact scan's under linear and affine costs alike.
/// affine_fifo adds `costs.is_affine()` to the gate, because its Fast
/// answer is the lifted double solution itself; keeping linear costs exact
/// there keeps linear-model sweeps byte-identical.
bool use_fast_lp(const SolveRequest& request) {
  return request.precision == Precision::Fast;
}

/// Marks a selection outcome where no subset was feasible: a clean
/// `lp_feasible == false` result (zero loads, empty scenario) instead of a
/// throw, so batch rows record the regime rather than an exception.
void mark_infeasible(const StarPlatform& platform, SolveResult& out) {
  out.solution.lp_feasible = false;
  out.solution.throughput = numeric::Rational();
  out.solution.alpha.assign(platform.size(), numeric::Rational());
}

/// Sorted copy of a participant set for reporting.
std::vector<std::size_t> sorted_participants(std::vector<std::size_t> set) {
  std::sort(set.begin(), set.end());
  return set;
}

void adopt_selection(const SolveRequest& request, AffineSelectionResult&& result,
                     SolveResult& out) {
  out.scenarios_tried = result.subsets_tried;
  out.lp_fallbacks = result.exact_resolves;
  out.subsets_pruned = result.subsets_pruned;
  out.subsets_screened = result.subsets_screened;
  out.budget_exhausted = result.budget_exhausted;
  if (!result.feasible) {
    mark_infeasible(request.platform, out);
  } else {
    out.solution = std::move(result.best);
    out.participants = sorted_participants(std::move(result.participants));
  }
  finish_affine(request, out);
  if (out.budget_exhausted) {
    out.notes += (out.notes.empty() ? "" : "; ");
    out.notes += "time budget exhausted: best of " +
                 std::to_string(out.scenarios_tried) + " subset(s) seen";
  }
}

// ----------------------------------------------------------- affine fifo --

class AffineFifoSolver final : public Solver {
 public:
  std::string name() const override { return "affine_fifo"; }
  std::string description() const override {
    return "FIFO LP under the affine cost model over an explicit "
           "participant set (default: all workers)";
  }
  std::string paper_ref() const override { return "Section 6, ref [20]"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    DLSCHED_EXPECT(!platform.empty(), "empty platform");
    std::vector<std::size_t> participants = request.participants;
    if (participants.empty()) {
      participants.resize(platform.size());
      for (std::size_t i = 0; i < platform.size(); ++i) participants[i] = i;
    }
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.participants = sorted_participants(participants);
    if (use_fast_lp(request) && request.costs.is_affine()) {
      const ScenarioSolutionD screened =
          solve_affine_fifo_fast(platform, participants, request.costs);
      if (screened.lp_feasible) {
        out.solution = lift_solution(screened);
        bool ok = false;
        try {
          ok = finish_affine_checked(request, out, /*allow_failure=*/true);
        } catch (const Error&) {
          ok = false;  // the double layout breached a layout invariant
        }
        if (ok) {
          out.exact = false;
          return out;
        }
      }
      // An infeasible screen and a failed validation both re-solve
      // exactly: the exact LP is the arbiter either way.
      out.lp_fallbacks = 1;
    }
    out.solution =
        solve_affine_fifo(platform, std::move(participants), request.costs);
    if (!out.solution.lp_feasible) out.participants.clear();
    finish_affine(request, out);
    if (out.lp_fallbacks > 0) {
      out.notes += (out.notes.empty() ? "" : "; ");
      out.notes += "fast affine path failed validation; re-solved exactly";
    }
    return out;
  }
};

// ------------------------------------------------------ greedy selection --

class AffineGreedySolver final : public Solver {
 public:
  std::string name() const override { return "affine_greedy"; }
  std::string description() const override {
    return "affine resource selection: grow the non-decreasing-c prefix "
           "while throughput improves (p LPs)";
  }
  std::string paper_ref() const override { return "Section 6, ref [20]"; }

  SolveResult solve(const SolveRequest& request) const override {
    SolveResult out;
    out.solver = name();
    out.schedule_platform = request.platform;
    adopt_selection(request,
                    solve_affine_fifo_greedy(request.platform, request.costs,
                                             use_fast_lp(request)),
                    out);
    return out;
  }
};

// ------------------------------------------------------- exact selection --

class AffineSubsetSolver final : public Solver {
 public:
  std::string name() const override { return "affine_subset"; }
  std::string description() const override {
    return "exact affine resource selection by subset enumeration "
           "(2^p - 1 LPs, honours time_budget_seconds)";
  }
  std::string paper_ref() const override { return "Section 6, ref [20]"; }

  bool applicable(const SolveRequest& request,
                  std::string* why) const override {
    if (!Solver::applicable(request, why)) return false;
    if (request.platform.size() > request.max_workers_subset) {
      if (why) {
        *why = "platform too large for subset enumeration (2^p LPs; raise "
               "max_workers_subset to force)";
      }
      return false;
    }
    return true;
  }

  SolveResult solve(const SolveRequest& request) const override {
    AffineSubsetOptions options;
    options.max_workers = request.max_workers_subset;
    options.time_budget_seconds = request.time_budget_seconds;
    options.use_fast_lp = use_fast_lp(request);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = request.platform;
    adopt_selection(
        request,
        solve_affine_fifo_best_subset(request.platform, request.costs,
                                      options),
        out);
    // A completed enumeration is exact over subsets of the INC_C order.
    out.provably_optimal = !out.budget_exhausted;
    return out;
  }
};

// -------------------------------------------------- local-search refinement --

class AffineLocalSearchSolver final : public Solver {
 public:
  std::string name() const override { return "affine_local_search"; }
  std::string description() const override {
    return "affine resource selection: deterministic add/drop/swap hill "
           "climbing over participant sets from the greedy prefix";
  }
  std::string paper_ref() const override {
    return "Section 6, ref [20] (heuristic)";
  }

  SolveResult solve(const SolveRequest& request) const override {
    AffineLocalSearchOptions options;
    options.max_steps = request.local_search_max_steps;
    options.time_budget_seconds = request.time_budget_seconds;
    options.use_fast_lp = use_fast_lp(request);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = request.platform;
    adopt_selection(
        request,
        solve_affine_fifo_local_search(request.platform, request.costs,
                                       options),
        out);
    out.lp_evaluations = out.scenarios_tried;
    return out;
  }
};

}  // namespace

void register_affine_solvers(SolverRegistry& registry) {
  registry.add([] { return std::make_unique<AffineFifoSolver>(); });
  registry.add([] { return std::make_unique<AffineGreedySolver>(); });
  registry.add([] { return std::make_unique<AffineSubsetSolver>(); });
  registry.add([] { return std::make_unique<AffineLocalSearchSolver>(); });
}

}  // namespace dlsched::affine
