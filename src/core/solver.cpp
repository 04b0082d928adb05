#include "core/solver.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "affine/solvers.hpp"
#include "core/brute_force.hpp"
#include "core/bus_closed_form.hpp"
#include "core/exchange.hpp"
#include "core/fifo_optimal.hpp"
#include "core/heuristics.hpp"
#include "core/lifo.hpp"
#include "core/local_search.hpp"
#include "core/mirror.hpp"
#include "core/multiround.hpp"
#include "core/no_return.hpp"
#include "core/two_port.hpp"
#include "numeric/limb_arena.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/fan_out.hpp"
#include "util/rng.hpp"

namespace dlsched {

namespace {

using numeric::Rational;

/// Rebuilds a `ScenarioSolution` from a realized schedule (used by the
/// transformation solvers, whose loads come from exchanges / flips rather
/// than an LP).  Loads are per unit horizon.
ScenarioSolution solution_from_schedule(const StarPlatform& platform,
                                        const Schedule& schedule) {
  ScenarioSolution s;
  s.alpha.assign(platform.size(), Rational());
  std::vector<std::size_t> send;
  std::vector<std::size_t> ret;
  send.reserve(schedule.size());
  ret.reserve(schedule.size());
  const double inv_horizon = 1.0 / schedule.horizon;
  for (const ScheduleEntry& entry : schedule.entries) {
    send.push_back(entry.worker);
    s.alpha[entry.worker] = Rational::from_double(entry.alpha * inv_horizon);
    s.throughput += s.alpha[entry.worker];
  }
  for (std::size_t pos : schedule.return_positions) {
    ret.push_back(schedule.entries[pos].worker);
  }
  s.scenario = Scenario::general(send, ret);
  return s;
}

// ----------------------------------------------------------------- fifo --

class FifoOptimalSolver final : public Solver {
 public:
  std::string name() const override { return "fifo_optimal"; }
  std::string description() const override {
    return "optimal one-port FIFO: non-decreasing c + LP resource "
           "selection, mirror transform for z > 1";
  }
  std::string paper_ref() const override { return "Theorem 1 / Prop. 1"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    if (request.precision == Precision::Fast) {
      const bool mirrored =
          platform.has_uniform_z() && platform.z() > 1.0;
      const Scenario scenario = Scenario::fifo(
          mirrored ? platform.order_by_c_desc() : platform.order_by_c());
      out.solution = lift_solution(solve_scenario_double(platform, scenario));
      out.mirrored = mirrored;
      out.provably_optimal = platform.has_uniform_z();
      out.exact = false;
      out.schedule = realize_schedule(platform, out.solution,
                                      request.horizon);
      return out;
    }
    const FifoOptimalResult result = solve_fifo_optimal(platform);
    out.solution = result.solution;
    out.schedule = result.schedule.scaled(request.horizon);
    out.provably_optimal = result.provably_optimal;
    out.mirrored = result.mirrored;
    return out;
  }
};

// ----------------------------------------------------------- heuristics --

class HeuristicSolver final : public Solver {
 public:
  HeuristicSolver(std::string name, Heuristic heuristic,
                  std::string description)
      : name_(std::move(name)),
        heuristic_(heuristic),
        description_(std::move(description)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::string paper_ref() const override { return "Section 5"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    Rng rng(request.seed);
    Rng* rng_ptr = heuristic_ == Heuristic::RandomFifo ? &rng : nullptr;
    SolveResult out;
    out.solver = name_;
    out.schedule_platform = platform;
    if (request.precision == Precision::Fast) {
      out.solution =
          lift_solution(solve_heuristic(platform, heuristic_, rng_ptr));
      out.exact = false;
    } else {
      out.solution = solve_heuristic_exact(platform, heuristic_, rng_ptr);
    }
    out.schedule = realize_schedule(platform, out.solution, request.horizon);
    return out;
  }

 private:
  std::string name_;
  Heuristic heuristic_;
  std::string description_;
};

// ----------------------------------------------------------------- lifo --

class LifoSolver final : public Solver {
 public:
  std::string name() const override { return "lifo"; }
  std::string description() const override {
    return "optimal LIFO: all workers, non-decreasing c, no idle "
           "(closed form; LP under Precision::Fast)";
  }
  std::string paper_ref() const override { return "Section 5, refs [7,8]"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.provably_optimal = true;  // optimal among LIFO schedules
    if (request.precision == Precision::Fast) {
      out.solution = lift_solution(solve_heuristic(platform, Heuristic::Lifo));
      out.exact = false;
      out.schedule = realize_schedule(platform, out.solution,
                                      request.horizon);
      return out;
    }
    const LifoResult result = solve_lifo_closed_form(platform);
    out.solution.throughput = result.throughput;
    out.solution.alpha = result.alpha;
    out.solution.scenario = Scenario::lifo(result.order);
    out.schedule = result.schedule.scaled(request.horizon);
    return out;
  }
};

// ---------------------------------------------------------- brute force --

class BruteForceSolver final : public Solver {
 public:
  BruteForceSolver(std::string name, bool fifo_only, bool lifo_only,
                   std::string description)
      : name_(std::move(name)),
        fifo_only_(fifo_only),
        lifo_only_(lifo_only),
        description_(std::move(description)) {}

  std::string name() const override { return name_; }
  std::string description() const override { return description_; }
  std::string paper_ref() const override { return "Section 7"; }

  bool applicable(const SolveRequest& request,
                  std::string* why) const override {
    if (!Solver::applicable(request, why)) return false;
    if (request.platform.size() > request.max_workers_brute) {
      if (why) {
        *why = "platform too large for exhaustive search (p!^2 scenarios; "
               "raise max_workers_brute to force)";
      }
      return false;
    }
    return true;
  }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    BruteForceOptions options;
    options.fifo_only = fifo_only_;
    options.lifo_only = lifo_only_;
    options.max_workers = request.max_workers_brute;
    options.time_budget_seconds = request.time_budget_seconds;
    SolveResult out;
    out.solver = name_;
    out.schedule_platform = platform;
    if (request.precision == Precision::Fast) {
      const BruteForceResultD result =
          brute_force_best_double(platform, options);
      out.solution = lift_solution(result.best);
      out.exact = false;
      out.scenarios_tried = result.scenarios_tried;
      out.budget_exhausted = result.budget_exhausted;
    } else {
      const BruteForceResult result = brute_force_best(platform, options);
      out.solution = result.best;
      out.scenarios_tried = result.scenarios_tried;
      out.budget_exhausted = result.budget_exhausted;
    }
    // A completed enumeration is exact over its search space.
    out.provably_optimal = !out.budget_exhausted;
    if (out.budget_exhausted) {
      out.notes = "time budget exhausted: best of " +
                  std::to_string(out.scenarios_tried) + " scenario(s) seen";
    }
    out.schedule = realize_schedule(platform, out.solution, request.horizon);
    return out;
  }

 private:
  std::string name_;
  bool fifo_only_;
  bool lifo_only_;
  std::string description_;
};

// ---------------------------------------------------------- local search --

class LocalSearchSolver final : public Solver {
 public:
  std::string name() const override { return "local_search"; }
  std::string description() const override {
    return "hill climbing over (sigma1, sigma2) permutation pairs, "
           "multi-start from FIFO/LIFO/random";
  }
  std::string paper_ref() const override { return "Section 7 (open problem)"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    LocalSearchOptions options;
    options.random_restarts = request.local_search_restarts;
    options.max_steps = request.local_search_max_steps;
    options.seed = request.seed;
    const LocalSearchResult result =
        local_search_best_pair(platform, options);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.solution = lift_solution(result.best);
    out.exact = false;  // the search oracle is the double LP
    out.lp_evaluations = result.lp_evaluations;
    out.ascents = result.ascents;
    out.schedule = realize_schedule(platform, out.solution, request.horizon);
    return out;
  }
};

// ------------------------------------------------------------- two port --

class TwoPortFifoSolver final : public Solver {
 public:
  std::string name() const override { return "two_port_fifo"; }
  std::string description() const override {
    return "optimal two-port FIFO; reported schedule is the Figure 7 "
           "one-port transformation";
  }
  std::string paper_ref() const override { return "Refs [7,8] / Figure 7"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    const TwoPortFifoResult result = solve_fifo_optimal_two_port(platform);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.solution = result.solution;
    out.used_two_port = true;
    out.alt_throughput = result.one_port_throughput;
    out.schedule =
        one_port_from_two_port(platform, result.solution, request.horizon);
    out.notes =
        "solution.throughput is the two-port optimum; the schedule is its "
        "one-port projection (alt_throughput)";
    return out;
  }
};

// ------------------------------------------------------ bus closed form --

class BusClosedFormSolver final : public Solver {
 public:
  std::string name() const override { return "bus_closed_form"; }
  std::string description() const override {
    return "exact optimal one-port FIFO throughput on a bus network "
           "(closed form, no LP)";
  }
  std::string paper_ref() const override { return "Theorem 2"; }

  bool applicable(const SolveRequest& request,
                  std::string* why) const override {
    if (!Solver::applicable(request, why)) return false;
    if (!request.platform.is_bus()) {
      if (why) *why = "requires a bus network (identical c and d links)";
      return false;
    }
    return true;
  }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    DLSCHED_EXPECT(platform.is_bus(),
                   "bus_closed_form requires a bus platform");
    const BusClosedFormResult result = solve_bus_closed_form(platform);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.provably_optimal = true;
    out.comm_limited = result.comm_limited;
    out.alt_throughput = result.two_port_throughput;
    out.solution.throughput = result.throughput;
    out.solution.alpha = result.alpha;
    out.schedule = result.schedule.scaled(request.horizon);
    out.solution.scenario = solution_from_schedule(platform, out.schedule)
                                .scenario;
    return out;
  }
};

// -------------------------------------------------------------- no return --

class NoReturnSolver final : public Solver {
 public:
  std::string name() const override { return "no_return"; }
  std::string description() const override {
    return "classical DLS baseline without return messages (d ignored; "
           "schedule validated on the d = 0 platform)";
  }
  std::string paper_ref() const override { return "Intro, refs [5,6,10]"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    const NoReturnResult result = solve_no_return_optimal(platform);
    SolveResult out;
    out.solver = name();
    out.provably_optimal = true;  // optimal for the no-return model
    out.solution.throughput = result.throughput;
    out.solution.alpha = result.alpha;
    out.solution.scenario = Scenario::fifo(result.order);
    out.schedule = result.schedule.scaled(request.horizon);
    std::vector<Worker> stripped(platform.workers().begin(),
                                 platform.workers().end());
    for (Worker& w : stripped) w.d = 0.0;
    out.schedule_platform = StarPlatform(std::move(stripped));
    out.notes = "no-return model: upper-bounds every z > 0 throughput";
    return out;
  }
};

// ------------------------------------------------------------ multiround --

class MultiRoundSolver final : public Solver {
 public:
  std::string name() const override { return "multiround"; }
  std::string description() const override {
    return "multi-installment dispatch: sweeps R rounds on the DES engine "
           "over the single-round INC_C load split";
  }
  std::string paper_ref() const override { return "Section 6, ref [3]"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    const ScenarioSolutionD base =
        solve_heuristic(platform, Heuristic::IncC);
    const std::vector<RoundSweepPoint> curve = sweep_rounds(
        platform, base.alpha, request.costs,
        std::max<std::size_t>(1, request.max_rounds));
    const auto best = std::min_element(
        curve.begin(), curve.end(),
        [](const RoundSweepPoint& a, const RoundSweepPoint& b) {
          return a.makespan < b.makespan;
        });
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.solution = lift_solution(base);
    out.exact = false;
    out.best_rounds = best->rounds;
    out.multiround_makespan = best->makespan;
    // The reported one-round schedule is the validator-checkable artifact;
    // the R-round execution lives on the DES engine (see sim/trace).
    out.schedule = realize_schedule(platform, out.solution, request.horizon);
    std::ostringstream notes;
    notes << "best R = " << best->rounds << " of " << curve.size()
          << " (makespan " << best->makespan
          << " for the single-round load split under the affine costs)";
    out.notes = notes.str();
    return out;
  }
};

// --------------------------------------------------------- exchange sort --

class ExchangeSortSolver final : public Solver {
 public:
  std::string name() const override { return "exchange_sort"; }
  std::string description() const override {
    return "proof-as-code: bubbles the worst FIFO order (DEC_C) into "
           "non-decreasing c via Lemma 2 exchanges";
  }
  std::string paper_ref() const override { return "Lemma 2 / Figures 5-6"; }

  bool applicable(const SolveRequest& request,
                  std::string* why) const override {
    if (!Solver::applicable(request, why)) return false;
    if (!request.platform.has_uniform_z() || request.platform.z() > 1.0) {
      if (why) {
        *why = "Lemma 2 exchanges require a uniform return ratio z <= 1";
      }
      return false;
    }
    return true;
  }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    DLSCHED_EXPECT(platform.has_uniform_z() && platform.z() <= 1.0,
                   "exchange_sort requires uniform z <= 1");
    const ScenarioSolution start = solve_scenario(
        platform, Scenario::fifo(platform.order_by_c_desc()));
    Schedule schedule = realize_schedule(platform, start, request.horizon);
    const double load_before = schedule.total_load();
    schedule = sort_by_exchanges(platform, schedule);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.schedule = std::move(schedule);
    out.solution = solution_from_schedule(platform, out.schedule);
    out.exact = false;  // loads accumulate through double transformations
    std::ostringstream notes;
    notes << "Lemma 2 exchange gain: "
          << out.schedule.total_load() - load_before
          << " load units over the DEC_C start";
    out.notes = notes.str();
    return out;
  }
};

// ----------------------------------------------------------- mirror fifo --

class MirrorFifoSolver final : public Solver {
 public:
  std::string name() const override { return "mirror_fifo"; }
  std::string description() const override {
    return "time-reversal transform: solves the mirrored platform's INC_C "
           "FIFO and flips the schedule (optimal when z >= 1)";
  }
  std::string paper_ref() const override { return "Section 3 (z > 1 case)"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    DLSCHED_EXPECT(!platform.empty(), "empty platform");
    const StarPlatform mirror = platform.mirrored();
    const Scenario mirror_scenario = Scenario::fifo(mirror.order_by_c());
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.mirrored = true;
    out.provably_optimal =
        platform.has_uniform_z() && platform.z() >= 1.0;
    if (request.precision == Precision::Fast) {
      // Same routing as fifo_optimal's Fast path: the double simplex on
      // the mirrored platform, lifted losslessly.  The flipped schedule is
      // re-checked by the independent validator; on any violation (a
      // degenerate double vertex surviving the time reversal) we fall
      // through to the exact LP below.
      const ScenarioSolution fast =
          lift_solution(solve_scenario_double(mirror, mirror_scenario));
      const Schedule mirror_schedule =
          realize_schedule(mirror, fast, request.horizon);
      if (std::optional<Schedule> flipped =
              try_flip_schedule(platform, mirror_schedule)) {
        out.schedule = std::move(*flipped);
        out.solution = solution_from_schedule(platform, out.schedule);
        out.solution.throughput = fast.throughput;
        out.solution.alpha = fast.alpha;
        out.solution.lp_pivots = fast.lp_pivots;
        out.exact = false;
        return out;
      }
      out.notes = "fast mirror flip failed validation; re-solved exactly";
    }
    const ScenarioSolution mirror_solution =
        solve_scenario(mirror, mirror_scenario);
    const Schedule mirror_schedule =
        realize_schedule(mirror, mirror_solution, request.horizon);
    out.schedule = flip_schedule(platform, mirror_schedule);
    out.solution = solution_from_schedule(platform, out.schedule);
    // The flip preserves loads exactly; keep the mirror LP's rationals.
    out.solution.throughput = mirror_solution.throughput;
    out.solution.alpha = mirror_solution.alpha;
    out.solution.lp_pivots = mirror_solution.lp_pivots;
    return out;
  }
};

// ------------------------------------------------------------ scenario LP --

class ScenarioLpSolver final : public Solver {
 public:
  std::string name() const override { return "scenario_lp"; }
  std::string description() const override {
    return "the paper's LP (2) for an explicit (sigma1, sigma2) scenario "
           "(defaults to INC_C FIFO); honours two-port and affine options";
  }
  std::string paper_ref() const override { return "Section 2.3, LP (2)"; }

  SolveResult solve(const SolveRequest& request) const override {
    const StarPlatform& platform = request.platform;
    DLSCHED_EXPECT(!platform.empty(), "empty platform");
    const Scenario scenario =
        request.scenario ? *request.scenario
                         : Scenario::fifo(platform.order_by_c());
    LpOptions options = request.costs.lp_options(!request.two_port);
    SolveResult out;
    out.solver = name();
    out.schedule_platform = platform;
    out.used_two_port = request.two_port;
    const bool plain =
        !request.two_port && !options.is_affine();
    if (request.precision == Precision::Fast && plain) {
      out.solution = lift_solution(solve_scenario_double(platform, scenario));
      out.exact = false;
    } else {
      if (!request.warm_alpha.empty()) {
        options.warm_basis = warm_basis_for(request.warm_alpha, scenario);
      }
      out.solution = solve_scenario(platform, scenario, options);
      out.lp_warm_starts = out.solution.lp_warm_starts;
    }
    if (!out.solution.lp_feasible) {
      out.notes = "affine constants alone exceed the horizon: infeasible";
      return out;  // no schedule to realize
    }
    if (request.two_port) {
      out.schedule =
          one_port_from_two_port(platform, out.solution, request.horizon);
      out.notes = "schedule is the Figure 7 one-port projection of the "
                  "two-port solution";
    } else if (options.is_affine()) {
      out.notes = "affine latencies are outside the linear Schedule model; "
                  "no realized schedule";
    } else {
      out.schedule =
          realize_schedule(platform, out.solution, request.horizon);
    }
    return out;
  }
};

void register_builtins(SolverRegistry& registry) {
  registry.add([] { return std::make_unique<FifoOptimalSolver>(); });
  registry.add([] {
    return std::make_unique<HeuristicSolver>(
        "inc_c", Heuristic::IncC,
        "FIFO, workers by non-decreasing c (the Theorem 1 order)");
  });
  registry.add([] {
    return std::make_unique<HeuristicSolver>(
        "inc_w", Heuristic::IncW,
        "FIFO, workers by non-decreasing w (comparison heuristic)");
  });
  registry.add([] {
    return std::make_unique<HeuristicSolver>(
        "dec_c", Heuristic::DecC,
        "FIFO, workers by non-increasing c (ablation ordering)");
  });
  registry.add([] {
    return std::make_unique<HeuristicSolver>(
        "random_fifo", Heuristic::RandomFifo,
        "FIFO over a seeded random order (ablation baseline)");
  });
  registry.add([] { return std::make_unique<LifoSolver>(); });
  registry.add([] {
    return std::make_unique<BruteForceSolver>(
        "brute_force", false, false,
        "exhaustive search over every (sigma1, sigma2) permutation pair");
  });
  registry.add([] {
    return std::make_unique<BruteForceSolver>(
        "brute_force_fifo", true, false,
        "exhaustive search restricted to FIFO scenarios");
  });
  registry.add([] {
    return std::make_unique<BruteForceSolver>(
        "brute_force_lifo", false, true,
        "exhaustive search restricted to LIFO scenarios");
  });
  registry.add([] { return std::make_unique<LocalSearchSolver>(); });
  registry.add([] { return std::make_unique<TwoPortFifoSolver>(); });
  registry.add([] { return std::make_unique<BusClosedFormSolver>(); });
  registry.add([] { return std::make_unique<NoReturnSolver>(); });
  registry.add([] { return std::make_unique<MultiRoundSolver>(); });
  registry.add([] { return std::make_unique<ExchangeSortSolver>(); });
  registry.add([] { return std::make_unique<MirrorFifoSolver>(); });
  registry.add([] { return std::make_unique<ScenarioLpSolver>(); });
  // The affine subsystem's solvers (affine_fifo, affine_greedy,
  // affine_subset, affine_local_search) register themselves.
  affine::register_affine_solvers(registry);
}

}  // namespace

ScenarioSolutionD SolveResult::solution_double() const {
  ScenarioSolutionD d;
  d.throughput = solution.throughput.to_double();
  d.alpha = solution.alpha_double();
  d.scenario = solution.scenario;
  d.lp_pivots = solution.lp_pivots;
  return d;
}

// ----------------------------------------------------------------- Solver --

bool Solver::applicable(const SolveRequest& request, std::string* why) const {
  if (request.platform.empty()) {
    if (why) *why = "empty platform";
    return false;
  }
  return true;
}

// --------------------------------------------------------- SolverRegistry --

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::add(SolverFactory factory) {
  DLSCHED_EXPECT(factory != nullptr, "null solver factory");
  const std::string name = factory()->name();
  DLSCHED_EXPECT(!contains(name),
                 "solver '" + name + "' is already registered");
  factories_.emplace_back(name, std::move(factory));
}

bool SolverRegistry::contains(const std::string& name) const {
  return std::any_of(factories_.begin(), factories_.end(),
                     [&](const auto& f) { return f.first == name; });
}

std::unique_ptr<Solver> SolverRegistry::create(const std::string& name) const {
  for (const auto& [known, factory] : factories_) {
    if (known == name) return factory();
  }
  std::string known_names;
  for (const std::string& n : names()) {
    if (!known_names.empty()) known_names += ", ";
    known_names += n;
  }
  DLSCHED_FAIL("unknown solver '" + name + "' (known: " + known_names + ")");
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) result.push_back(name);
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<SolverInfo> SolverRegistry::infos() const {
  std::vector<SolverInfo> result;
  result.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) {
    const std::unique_ptr<Solver> solver = factory();
    result.push_back({name, solver->description(), solver->paper_ref()});
  }
  std::sort(result.begin(), result.end(),
            [](const SolverInfo& a, const SolverInfo& b) {
              return a.name < b.name;
            });
  return result;
}

SolveResult SolverRegistry::run(const std::string& name,
                                const SolveRequest& request) const {
  const std::unique_ptr<Solver> solver = create(name);
  obs::ObsSpan span("solve", "solve");
  if (span.active()) span.rename("solve:" + name);
  // Snapshot the thread-local limb arena so the result carries the solve's
  // own big-integer buffer traffic (the counters are cumulative).
  const numeric::LimbArena::Stats arena_before = numeric::limb_arena_stats();
  const auto start = std::chrono::steady_clock::now();
  SolveResult result = solver->solve(request);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const numeric::LimbArena::Stats arena_after = numeric::limb_arena_stats();
  // The per-solve arena deltas flow through the process metrics registry
  // (the one place every arena counter accumulates) and the SolveResult
  // stat fields are snapshotted from that same delta.
  const std::uint64_t arena_acquires =
      arena_after.acquires - arena_before.acquires;
  const std::uint64_t arena_pool_hits =
      arena_after.pool_hits - arena_before.pool_hits;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::process();
  metrics.add("solver.runs");
  metrics.add("solver.arena_acquires", arena_acquires);
  metrics.add("solver.arena_pool_hits", arena_pool_hits);
  metrics.observe("solver.wall_seconds", result.wall_seconds);
  result.arena_acquires = arena_acquires;
  result.arena_pool_hits = arena_pool_hits;
  return result;
}

const char* solver_name_for(Heuristic h) noexcept {
  switch (h) {
    case Heuristic::IncC: return "inc_c";
    case Heuristic::IncW: return "inc_w";
    case Heuristic::Lifo: return "lifo";
    case Heuristic::DecC: return "dec_c";
    case Heuristic::RandomFifo: return "random_fifo";
  }
  return "?";
}

// ---------------------------------------------------------------- hashing --

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t hash = kFnvOffset) noexcept {
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= kFnvPrime;
  }
  return hash;
}

void key_double(std::ostringstream& out, double value) {
  // Bit pattern, not decimal text: the key must distinguish every distinct
  // double and never depend on formatting.
  out << std::hex << std::bit_cast<std::uint64_t>(value) << std::dec << ' ';
}

std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

}  // namespace

std::string request_canonical_key(const SolveRequest& request) {
  std::ostringstream out;
  out << "platform ";
  for (const Worker& w : request.platform.workers()) {
    key_double(out, w.c);
    key_double(out, w.w);
    key_double(out, w.d);
  }
  out << "\nscenario ";
  if (request.scenario) {
    for (std::size_t i : request.scenario->send_order) out << i << ' ';
    out << "| ";
    for (std::size_t i : request.scenario->return_order) out << i << ' ';
  } else {
    out << "-";
  }
  out << "\nparticipants ";
  for (std::size_t i : request.participants) out << i << ' ';
  out << "\ntwo_port " << request.two_port;
  out << "\ncosts ";
  key_double(out, request.costs.send_latency);
  key_double(out, request.costs.compute_latency);
  key_double(out, request.costs.return_latency);
  out << "\ncosts_per_worker ";
  for (const double v : request.costs.send_latency_per_worker) {
    key_double(out, v);
  }
  out << "| ";
  for (const double v : request.costs.return_latency_per_worker) {
    key_double(out, v);
  }
  out << "\nprecision " << (request.precision == Precision::Exact ? 'e' : 'f');
  out << "\nhorizon ";
  key_double(out, request.horizon);
  out << "\nseed " << request.seed;
  out << "\nbudget ";
  key_double(out, request.time_budget_seconds);
  out << "\nguards " << request.max_workers_brute << ' '
      << request.max_workers_subset << ' ' << request.local_search_restarts
      << ' ' << request.local_search_max_steps << ' ' << request.max_rounds;
  return out.str();
}

std::uint64_t request_hash(const SolveRequest& request) {
  return fnv1a(request_canonical_key(request));
}

std::string job_canonical_key(const std::string& solver,
                              const SolveRequest& request) {
  return solver + "\n" + request_canonical_key(request);
}

std::string job_hash_from_key(std::string_view key) {
  // Two independent FNV streams (the second over the reversed bytes) give a
  // 128-bit identifier; the cache still verifies the full key on load.
  const std::uint64_t lo = fnv1a(key);
  std::uint64_t hi = kFnvOffset;
  for (auto it = key.rbegin(); it != key.rend(); ++it) {
    hi ^= static_cast<unsigned char>(*it);
    hi *= kFnvPrime;
  }
  return hex16(lo) + hex16(hi);
}

std::string job_hash_hex(const std::string& solver,
                         const SolveRequest& request) {
  return job_hash_from_key(job_canonical_key(solver, request));
}

// --------------------------------------------------------------- batching --

std::vector<BatchOutcome> solve_batch(std::span<const BatchJobView> jobs,
                                      std::size_t threads,
                                      const BatchProgressHook& progress) {
  std::vector<BatchOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;
  const SolverRegistry& registry = SolverRegistry::instance();
  obs::ObsSpan batch_span("batch", "solve_batch");
  if (batch_span.active()) {
    batch_span.rename("solve_batch:" + std::to_string(jobs.size()));
  }

  // Within-batch dedupe: byte-identical (request, solver) jobs are solved
  // and validated once, then copied.  `primary_of[i] == i` marks the job
  // that actually runs.  A job's identity is its precomputed hash when the
  // caller already holds one.
  std::vector<std::size_t> primary_of(jobs.size());
  std::vector<std::size_t> primaries;
  std::vector<std::string> computed_hashes;  // stable: reserved up front
  computed_hashes.reserve(static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), [](const BatchJobView& job) {
        return job.job_hash.empty();
      })));
  std::unordered_map<std::string_view, std::size_t> first_by_hash;
  first_by_hash.reserve(jobs.size());
  {
    obs::ObsSpan dedupe_span("batch", "dedupe");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      DLSCHED_EXPECT(jobs[i].request != nullptr, "null request in batch job");
      std::string_view hash = jobs[i].job_hash;
      if (hash.empty()) {
        hash = computed_hashes.emplace_back(
            job_hash_hex(jobs[i].solver, *jobs[i].request));
      }
      const auto [it, inserted] = first_by_hash.try_emplace(hash, i);
      primary_of[i] = it->second;
      if (inserted) primaries.push_back(i);
    }
  }
  const std::size_t primary_count = primaries.size();
  obs::MetricsRegistry::process().add("batch.jobs", jobs.size());
  obs::MetricsRegistry::process().add("batch.deduped",
                                      jobs.size() - primary_count);

  std::atomic<bool> stop{false};
  std::mutex progress_mutex;
  std::size_t completed = 0;  // guarded by progress_mutex

  auto run_job = [&](std::size_t index) {
    const BatchJobView& job = jobs[index];
    BatchOutcome& outcome = outcomes[index];
    outcome.solver = job.solver;
    if (stop.load(std::memory_order_relaxed)) {
      outcome.cancelled = true;
      outcome.error = "cancelled by batch progress hook";
      return;
    }
    try {
      outcome.result = registry.run(job.solver, *job.request);
      outcome.solved = true;
      obs::ObsSpan validate_span("validate", "validate");
      const auto start = std::chrono::steady_clock::now();
      outcome.validation = validate(outcome.result.schedule_platform,
                                    outcome.result.schedule);
      outcome.validate_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      outcome.ok = outcome.validation.ok;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    if (progress) {
      const std::lock_guard<std::mutex> lock(progress_mutex);
      const BatchProgress report{index, ++completed, primary_count};
      if (!progress(report, outcome)) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };

  fan_out(primary_count, lane_count(threads, primary_count),
          [&](std::size_t k) { run_job(primaries[k]); });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (primary_of[i] == i) continue;
    outcomes[i] = outcomes[primary_of[i]];
    outcomes[i].deduped = true;
    outcomes[i].validate_seconds = 0.0;  // the validator did not run again
  }
  return outcomes;
}

std::vector<BatchOutcome> solve_batch(std::span<const BatchJob> jobs,
                                      std::size_t threads,
                                      const BatchProgressHook& progress) {
  std::vector<BatchJobView> views;
  views.reserve(jobs.size());
  for (const BatchJob& job : jobs) {
    views.push_back({job.solver, &job.request, {}});
  }
  return solve_batch(views, threads, progress);
}

std::vector<BatchOutcome> solve_batch_across_solvers(
    const SolveRequest& request, std::span<const std::string> solvers,
    std::size_t threads, bool skip_inapplicable) {
  const SolverRegistry& registry = SolverRegistry::instance();
  std::vector<BatchJob> jobs;
  jobs.reserve(solvers.size());
  for (const std::string& name : solvers) {
    if (skip_inapplicable &&
        !registry.create(name)->applicable(request)) {
      continue;
    }
    jobs.push_back({name, request});
  }
  return solve_batch(jobs, threads);
}

std::vector<BatchOutcome> solve_batch_across_platforms(
    const std::string& solver, std::span<const StarPlatform> platforms,
    const SolveRequest& base_request, std::size_t threads) {
  std::vector<BatchJob> jobs;
  jobs.reserve(platforms.size());
  for (const StarPlatform& platform : platforms) {
    BatchJob job{solver, base_request};
    job.request.platform = platform;
    jobs.push_back(std::move(job));
  }
  return solve_batch(jobs, threads);
}

}  // namespace dlsched
