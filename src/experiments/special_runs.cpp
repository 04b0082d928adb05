#include "experiments/special_runs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "affine/realization.hpp"
#include "affine/replay.hpp"
#include "affine/selection.hpp"
#include "core/churn.hpp"
#include "core/multiround.hpp"
#include "core/scenario_lp.hpp"
#include "core/throughput.hpp"
#include "lp/problem.hpp"
#include "platform/matrix_app.hpp"
#include "runtime/matmul.hpp"
#include "runtime/one_port.hpp"
#include "runtime/worker_thread.hpp"
#include "schedule/gantt.hpp"
#include "schedule/rounding.hpp"
#include "service/wire.hpp"
#include "sim/des_executor.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace dlsched::experiments::detail {

namespace {

using std::chrono::steady_clock;

double elapsed_since(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

/// Platform-indexed integral loads for M tasks, per the paper's rounding
/// policy (sigma_1 order), from a (cached) double solution.
std::vector<double> integral_loads(const ScenarioSolutionD& solution,
                                   std::size_t platform_size,
                                   std::uint64_t total_tasks) {
  std::vector<double> ordered;
  ordered.reserve(solution.scenario.send_order.size());
  const double scale =
      static_cast<double>(total_tasks) / solution.throughput;
  for (const std::size_t w : solution.scenario.send_order) {
    ordered.push_back(solution.alpha[w] * scale);
  }
  const std::vector<std::uint64_t> integral =
      round_loads(ordered, total_tasks);
  std::vector<double> loads(platform_size, 0.0);
  for (std::size_t k = 0; k < solution.scenario.send_order.size(); ++k) {
    loads[solution.scenario.send_order[k]] =
        static_cast<double>(integral[k]);
  }
  return loads;
}

}  // namespace

// -------------------------------------------------------------- linearity --

namespace {

struct Fit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;
};

Fit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys) {
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  Fit fit;
  fit.slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_res = 0.0, ss_tot = 0.0;
  const double mean_y = sy / n;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double predicted = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - predicted) * (ys[i] - predicted);
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  fit.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace

void run_linearity(const ExperimentSpec& spec, const RunOptions& options,
                   BenchJsonWriter* json, std::ostream* csv,
                   RunSummary& summary, std::ostream& log) {
  // The paper's setup: messages of 0.5-5 MB to five workers with link
  // speed factors 1..5 over ~11.75 MB/s base bandwidth.
  const std::vector<double> sizes_mb{0.5, 1.0, 1.5, 2.0, 2.5,
                                     3.0, 3.5, 4.0, 4.5, 5.0};
  const double base_bandwidth = 11.75e6;

  const std::vector<std::string> header{"source", "worker", "speed",
                                        "slope_s_per_mb", "intercept_s",
                                        "r2"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  Table table(header);
  table.set_precision(5);

  const auto emit = [&](const char* source, int worker, const Fit& fit) {
    table.begin_row()
        .cell(std::string(source))
        .cell(static_cast<long long>(worker))
        .cell(static_cast<long long>(worker))
        .cell(fit.slope)
        .cell(fit.intercept)
        .cell(fit.r2);
    if (csv_writer) {
      csv_writer->cell(std::string(source))
          .cell(static_cast<std::size_t>(worker))
          .cell(static_cast<std::size_t>(worker))
          .cell(fit.slope)
          .cell(fit.intercept)
          .cell(fit.r2);
      csv_writer->end_row();
    }
    if (json) {
      json->row(JsonObject()
                    .add("source", source)
                    .add("worker", worker)
                    .add("speed_factor", worker)
                    .add("slope_s_per_mb", fit.slope)
                    .add("intercept_s", fit.intercept)
                    .add("r2", fit.r2));
      ++summary.rows;
    }
    ++summary.jobs;
    ++summary.solved;
  };

  // ---- (1) threaded runtime: wall-clock paced transfers (skipped under
  // --quick: it sleeps real time and its numbers are machine-dependent).
  if (!options.quick) {
    rt::RuntimeConfig config;
    config.base_bandwidth = base_bandwidth;
    // Transfers must stay well above the OS sleep granularity or the fit
    // measures scheduler jitter instead of bandwidth.
    config.time_scale = 4.0;
    for (int worker = 1; worker <= 5; ++worker) {
      const double factor = worker;
      std::vector<double> xs, ys;
      for (const double mb : sizes_mb) {
        const double expected =
            rt::transfer_seconds(config, mb * 1e6, factor);
        const auto begin = steady_clock::now();
        rt::paced_sleep(expected, config.time_scale);
        xs.push_back(mb);
        ys.push_back(elapsed_since(begin) * config.time_scale);
      }
      emit("runtime", worker, linear_fit(xs, ys));
    }
  }

  // ---- (2) DES with cluster-like noise -----------------------------------
  for (int worker = 1; worker <= 5; ++worker) {
    sim::NoiseSampler sampler(sim::NoiseModel::cluster_like(
        spec.seed + static_cast<std::uint64_t>(worker)));
    std::vector<double> xs, ys;
    for (const double mb : sizes_mb) {
      xs.push_back(mb);
      ys.push_back(
          sampler.message_time(mb * 1e6 / (base_bandwidth * worker)));
    }
    emit("des", worker, linear_fit(xs, ys));
  }

  table.print_aligned(log);
  log << "expected: r2 ~ 1 (linear), intercept ~ 0 (no latency), slope ~ "
         "1/(11.75 * speed)\n";
}

// ------------------------------------------------------------------ trace --

void run_trace(const ExperimentSpec& spec, const RunOptions& options,
               ResultCache& cache, BenchJsonWriter* json, std::ostream* csv,
               RunSummary& summary, std::ostream& log) {
  // Three capable workers, two much slower ones: the paper's resource
  // selection picture (only the first three enroll).
  const MatrixApp app({.matrix_size = 150});
  const StarPlatform platform = app.platform({
      WorkerSpeeds{9.0, 8.0},
      WorkerSpeeds{8.0, 9.0},
      WorkerSpeeds{7.0, 7.0},
      WorkerSpeeds{1.0, 1.0},
      WorkerSpeeds{1.0, 1.2},
  });
  log << platform.describe() << "\n";

  SolveRequest request;
  request.platform = platform;
  request.precision = Precision::Exact;
  const CachedRun run = run_solver_cached(cache, "fifo_optimal", request);
  ++summary.jobs;
  run.from_cache ? ++summary.cache_hits : ++summary.solved;
  DLSCHED_EXPECT(run.solve.solved, "fig09 solve failed: " + run.solve.error);
  const ScenarioSolutionD solution = solution_from_cached(run.solve);
  log << "optimal FIFO (INC_C) throughput: " << solution.throughput
      << " tasks per unit; workers enrolled: " << run.solve.workers_used
      << " of " << platform.size() << "\n\n";

  const std::uint64_t m = std::min<std::uint64_t>(spec.total_tasks, 200);
  const std::vector<double> loads =
      integral_loads(solution, platform.size(), m);
  const sim::DesResult des =
      sim::execute(platform, solution.scenario, loads);
  const Timeline timeline = des.trace.to_timeline();
  log << render_ascii_gantt(platform, timeline) << "\n";

  const std::vector<std::string> header{"worker", "alpha", "tasks"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  for (std::size_t w = 0; w < platform.size(); ++w) {
    if (csv_writer) {
      csv_writer->cell(w).cell(solution.alpha[w]).cell(loads[w]);
      csv_writer->end_row();
    }
    if (json) {
      json->row(JsonObject()
                    .add("solver", "fifo_optimal")
                    .add("worker", w)
                    .add("alpha", solution.alpha[w])
                    .add("tasks", loads[w]));
      ++summary.rows;
    }
  }
  if (json) {
    json->row(JsonObject()
                  .add("solver", "fifo_optimal")
                  .add("metric", "des_makespan_seconds")
                  .add("value", des.makespan));
    ++summary.rows;
  }

  // The SVG lands next to the JSON artifact.
  std::string svg_path = "fig09_trace.svg";
  if (!options.out_json.empty()) {
    svg_path = options.out_json;
    const std::size_t dot = svg_path.rfind(".json");
    if (dot != std::string::npos) svg_path.erase(dot);
    svg_path += ".svg";
  }
  std::ofstream svg(svg_path);
  if (svg.good()) {
    GanttOptions gantt;
    gantt.svg_pixels_per_unit = 700.0 / timeline.makespan;
    svg << render_svg_gantt(platform, timeline, gantt);
    log << "SVG written to " << svg_path << "\n";
  }
  log << "expected: the two factor-1 workers receive no load; sends "
         "back-to-back, returns FIFO at the end\n";
}

// ---------------------------------------------------------- participation --

void run_participation(const ExperimentSpec& spec, const RunOptions& options,
                       ResultCache& cache, BenchJsonWriter* json,
                       std::ostream* csv, RunSummary& summary,
                       std::ostream& log) {
  (void)options;
  const std::size_t matrix_size =
      spec.matrix_sizes.empty() ? 400 : spec.matrix_sizes.front();
  const MatrixApp app({.matrix_size = matrix_size});
  const std::uint64_t m = spec.total_tasks;

  const std::vector<std::string> header{"x",           "available_workers",
                                        "lp_seconds",  "real_seconds",
                                        "workers_used", "wall_seconds"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  Table table(header);
  table.set_precision(3);

  for (const double x : spec.x_values) {
    const StarPlatform full = app.platform(gen::participation_speeds(x));
    for (std::size_t available = 1; available <= full.size(); ++available) {
      std::vector<std::size_t> subset(available);
      for (std::size_t i = 0; i < available; ++i) subset[i] = i;
      SolveRequest request;
      request.platform = full.subset(subset);
      request.precision = Precision::Exact;
      const CachedRun run =
          run_solver_cached(cache, "fifo_optimal", request);
      ++summary.jobs;
      run.from_cache ? ++summary.cache_hits : ++summary.solved;
      if (!run.solve.solved) {
        ++summary.failures;
        continue;
      }
      const ScenarioSolutionD solution = solution_from_cached(run.solve);
      const double lp_seconds =
          makespan_for_load(solution.throughput, static_cast<double>(m));
      const std::vector<double> loads =
          integral_loads(solution, request.platform.size(), m);
      const sim::DesResult des = sim::execute(
          request.platform, solution.scenario, loads,
          sim::NoiseModel::cluster_like(42 + available +
                                        static_cast<std::uint64_t>(x)));
      table.begin_row()
          .cell(format_double(x, 2))
          .cell(available)
          .cell(lp_seconds)
          .cell(des.makespan)
          .cell(run.solve.workers_used)
          .cell(run.solve.wall_seconds);
      if (csv_writer) {
        csv_writer->cell(x)
            .cell(available)
            .cell(lp_seconds)
            .cell(des.makespan)
            .cell(run.solve.workers_used)
            .cell(run.solve.wall_seconds);
        csv_writer->end_row();
      }
      if (json) {
        json->row(JsonObject()
                      .add("solver", "fifo_optimal")
                      .add("x", x)
                      .add("available_workers", available)
                      .add("lp_seconds", lp_seconds)
                      .add("real_seconds", des.makespan)
                      .add("workers_used", run.solve.workers_used)
                      .add("wall_seconds", run.solve.wall_seconds));
        ++summary.rows;
      }
    }
  }
  table.print_aligned(log);
  log << "expected: x = 1 never enrolls the slow fourth worker; x = 3 "
         "does, and the 4-worker time improves slightly\n";
}

// -------------------------------------------------------------- selection --

namespace {

/// Throughput when every scenario worker must take at least `floor` load
/// (epsilon participation), approximating the classical "use everyone"
/// policy.
double forced_participation_throughput(const StarPlatform& platform,
                                       double floor) {
  const Scenario scenario = Scenario::fifo(platform.order_by_c());
  lp::LpProblem problem = build_scenario_lp(platform, scenario);
  // alpha variables are the first q in sigma_1 order.
  for (std::size_t k = 0; k < scenario.size(); ++k) {
    problem.add_constraint({{k, numeric::Rational(1)}},
                           lp::Relation::GreaterEq,
                           numeric::Rational::from_double(floor));
  }
  const auto solution = problem.solve_double();
  return solution.status == lp::Status::Optimal ? solution.objective : 0.0;
}

}  // namespace

void run_selection(const ExperimentSpec& spec, const RunOptions& options,
                   ResultCache& cache, BenchJsonWriter* json,
                   std::ostream* csv, RunSummary& summary,
                   std::ostream& log) {
  (void)options;
  const std::size_t p = spec.workers.empty() ? 10 : spec.workers.front();

  const std::vector<std::string> header{"z", "platforms", "selection_rate",
                                        "mean_gain", "max_gain"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  Table table(header);
  table.set_precision(4);

  for (const double z : spec.z_values) {
    std::size_t dropped = 0;
    Accumulator gain;
    for (std::size_t trial = 0; trial < spec.repetitions; ++trial) {
      const std::uint64_t seed = instance_seed(spec.seed, p, z, trial);
      gen::GenParams params = spec.generator_params;
      params["p"] = static_cast<double>(p);
      params["z"] = z;
      Rng rng(seed);
      SolveRequest request;
      request.platform = gen::GeneratorRegistry::instance().make(
          spec.generator, params, rng);
      request.precision = Precision::Exact;
      const CachedRun run =
          run_solver_cached(cache, "fifo_optimal", request);
      ++summary.jobs;
      run.from_cache ? ++summary.cache_hits : ++summary.solved;
      if (!run.solve.solved) {
        ++summary.failures;
        continue;
      }
      const bool selected =
          run.solve.workers_used < request.platform.size();
      if (selected) ++dropped;
      const double forced = forced_participation_throughput(
          request.platform, 1e-4 * run.solve.throughput);
      const double trial_gain =
          forced > 0.0 ? run.solve.throughput / forced : 0.0;
      if (forced > 0.0) gain.add(trial_gain);
      if (json) {
        json->row(JsonObject()
                      .add("solver", "fifo_optimal")
                      .add("z", z)
                      .add("rep", trial)
                      .add("seed", seed)
                      .add("throughput", run.solve.throughput)
                      .add("forced_throughput", forced)
                      .add("gain", trial_gain)
                      .add("workers_used", run.solve.workers_used)
                      .add("selected", selected)
                      .add("wall_seconds", run.solve.wall_seconds));
        ++summary.rows;
      }
    }
    const double rate = spec.repetitions > 0
                            ? static_cast<double>(dropped) /
                                  static_cast<double>(spec.repetitions)
                            : 0.0;
    table.begin_row()
        .cell(format_double(z, 2))
        .cell(spec.repetitions)
        .cell(rate)
        .cell(gain.mean())
        .cell(gain.max());
    if (csv_writer) {
      csv_writer->cell(z)
          .cell(spec.repetitions)
          .cell(rate)
          .cell(gain.mean())
          .cell(gain.max());
      csv_writer->end_row();
    }
  }
  table.print_aligned(log);
  log << "expected: selection engages on straggler platforms; forcing "
         "everyone in costs throughput (gain > 1)\n";
}

// -------------------------------------------------------------- multiround --

void run_multiround(const ExperimentSpec& spec, const RunOptions& options,
                    BenchJsonWriter* json, std::ostream* csv,
                    RunSummary& summary, std::ostream& log) {
  (void)options;
  const std::size_t p = spec.workers.empty() ? 4 : spec.workers.front();
  // Chains dominated by reception + compute, as in the paper's Section 6
  // discussion: comm in [0.3, 0.6], compute in [0.8, 1.6].
  Rng rng(spec.seed);
  const StarPlatform platform = gen::random_star(p, rng, 0.5, 0.3, 0.6,
                                                 0.8, 1.6);
  SolveRequest request;
  request.platform = platform;
  request.precision = Precision::Fast;
  const SolveResult sol = SolverRegistry::instance().run("inc_c", request);
  const std::vector<double> alpha = sol.solution.alpha_double();
  ++summary.jobs;
  ++summary.solved;

  const std::vector<std::string> header{"latency", "rounds", "makespan"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);

  std::ostringstream best_line;
  best_line << "best round count per latency:";
  for (const double latency : spec.latencies) {
    AffineCosts costs;
    costs.send_latency = latency;
    const std::vector<RoundSweepPoint> curve =
        sweep_rounds(platform, alpha, costs, spec.max_rounds);
    for (const RoundSweepPoint& point : curve) {
      if (csv_writer) {
        csv_writer->cell(latency)
            .cell(point.rounds)
            .cell(point.makespan);
        csv_writer->end_row();
      }
      if (json) {
        json->row(JsonObject()
                      .add("solver", "inc_c")
                      .add("send_latency", latency)
                      .add("rounds", point.rounds)
                      .add("makespan", point.makespan));
        ++summary.rows;
      }
    }
    const auto best = std::min_element(
        curve.begin(), curve.end(),
        [](const RoundSweepPoint& a, const RoundSweepPoint& b) {
          return a.makespan < b.makespan;
        });
    best_line << "  " << format_double(latency, 3) << " -> R="
              << best->rounds;
  }
  log << best_line.str() << "\n";
  log << "expected: optimal R decreases as latency grows; latency 0 "
         "saturates (more rounds ~ free)\n";
}

// ------------------------------------------------------------------- micro --

void run_micro(const ExperimentSpec& spec, const RunOptions& options,
               BenchJsonWriter* json, std::ostream* csv, RunSummary& summary,
               std::ostream& log) {
  const std::size_t repeats =
      std::max<std::size_t>(1, options.quick ? 2 : spec.repetitions);

  const std::vector<std::string> header{"bench", "param", "repeats",
                                        "wall_min_seconds",
                                        "wall_mean_seconds"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  Table table(header);
  table.set_precision(8);

  // `counters`, when given, is filled by the body (last repeat wins --
  // every repeat solves the same deterministic instance) and lands as
  // extra per-row JSON keys, so the regression checker can gate on solver
  // work (pivot counts, accepted warm starts) and not just wall time.
  const auto bench = [&](const std::string& name, std::size_t param,
                         const std::function<void()>& body,
                         const std::map<std::string, std::uint64_t>*
                             counters = nullptr) {
    double wall_min = std::numeric_limits<double>::infinity();
    double total = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      const auto start = steady_clock::now();
      body();
      const double seconds = elapsed_since(start);
      wall_min = std::min(wall_min, seconds);
      total += seconds;
    }
    const double wall_mean = total / static_cast<double>(repeats);
    table.begin_row()
        .cell(name)
        .cell(param)
        .cell(repeats)
        .cell(wall_min)
        .cell(wall_mean);
    if (csv_writer) {
      csv_writer->cell(name).cell(param).cell(repeats).cell(wall_min).cell(
          wall_mean);
      csv_writer->end_row();
    }
    if (json) {
      JsonObject row;
      row.add("bench", name)
          .add("param", param)
          .add("repeats", repeats)
          .add("wall_min_seconds", wall_min)
          .add("wall_mean_seconds", wall_mean);
      if (counters) {
        for (const auto& [key, value] : *counters) row.add(key, value);
      }
      json->row(row);
      ++summary.rows;
    }
    ++summary.jobs;
    ++summary.solved;
  };

  const auto platform_for = [&](std::size_t p) {
    Rng rng(spec.seed + p);
    return gen::random_star(p, rng, 0.5);
  };

  // Micros that take microseconds a call sit under the regression gate's
  // 1 ms noise floor, or under its 0.5 ms bar for machine-speed anchors
  // (the DES and gemm micros): each of their timed samples runs a fixed
  // batch of calls, and their wall times are those of the whole batch.
  constexpr int kDoubleLpBatch = 4000;
  const auto batched = [](int calls, std::function<void()> call) {
    return [calls, call = std::move(call)] {
      for (int i = 0; i < calls; ++i) call();
    };
  };

  // Exact rational simplex vs the double simplex on the scheduling LP
  // (the cost of replacing the paper's lp_solve with exact arithmetic).
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{2, 4}
                     : std::vector<std::size_t>{2, 4, 8, 12}) {
    const StarPlatform platform = platform_for(p);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    bench("scenario_lp_exact", p,
          [&] { (void)solve_scenario(platform, scenario); });
  }
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4, 8}
                     : std::vector<std::size_t>{4, 8, 12, 24}) {
    const StarPlatform platform = platform_for(p);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    bench("scenario_lp_double", p, batched(kDoubleLpBatch, [&] {
            (void)solve_scenario_double(platform, scenario);
          }));
  }
  // The two exact engines head to head on one pre-built LP: the
  // fraction-free Bareiss tableau vs the gcd-reducing rational simplex
  // (both produce bit-identical solutions; only the arithmetic differs).
  for (const std::size_t p : options.quick ? std::vector<std::size_t>{4}
                                           : std::vector<std::size_t>{4, 8,
                                                                      12}) {
    const StarPlatform platform = platform_for(p);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    const lp::LpProblem problem = build_scenario_lp(platform, scenario);
    bench("bareiss_pivot", p,
          [&] { (void)problem.solve_exact(lp::ExactEngine::Bareiss); });
    bench("rational_pivot", p,
          [&] { (void)problem.solve_exact(lp::ExactEngine::Rational); });
  }
  for (const std::size_t p : {4, 12}) {
    const StarPlatform platform = platform_for(p);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    bench("build_scenario_lp", p,
          [&] { (void)build_scenario_lp(platform, scenario); });
    bench("build_scenario_lp_double", p, batched(kDoubleLpBatch, [&] {
            (void)build_scenario_lp_double(platform, scenario);
          }));
  }

  // DES throughput: engine event dispatch and a full protocol execution.
  // Anchor batches: an engine_events sample dispatches at least 20,000
  // events, a des_execute sample runs 1,000 executions, and a gemm sample
  // does the flops of one n = 128 call.
  for (const std::size_t events :
       options.quick ? std::vector<std::size_t>{1000}
                     : std::vector<std::size_t>{1000, 100000}) {
    const int runs =
        static_cast<int>(std::max<std::size_t>(1, 20000 / events));
    bench("engine_events", events, batched(runs, [&] {
            sim::Engine engine;
            std::size_t fired = 0;
            for (std::size_t i = 0; i < events; ++i) {
              engine.schedule_at(static_cast<double>(i),
                                 [&fired] { ++fired; });
            }
            engine.run();
          }));
  }
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4, 16}
                     : std::vector<std::size_t>{4, 16, 64}) {
    const StarPlatform platform = platform_for(p);
    SolveRequest request;
    request.platform = platform;
    request.precision = Precision::Fast;
    const SolveResult sol = SolverRegistry::instance().run("inc_c", request);
    const Scenario scenario = sol.solution.scenario;
    const std::vector<double> alpha = sol.solution.alpha_double();
    bench("des_execute", p, batched(1000, [&] {
            (void)sim::execute(platform, scenario, alpha);
          }));
  }

  // The matrix application's compute kernel.
  for (const std::size_t n :
       options.quick ? std::vector<std::size_t>{32}
                     : std::vector<std::size_t>{32, 64, 128}) {
    Rng rng(spec.seed + n);
    rt::Matrix a(n), b(n), c(n);
    a.fill_random(rng);
    b.fill_random(rng);
    const int calls = static_cast<int>((128 / n) * (128 / n) * (128 / n));
    bench("gemm", n, batched(calls, [&] { rt::gemm(a, b, c); }));
  }

  // The cluster wire layer: encode + decode throughput of the largest
  // frames the TCP board ships -- a FragmentPush carrying one serialized
  // shard result plus N cache records.  The bodies are synthetic but
  // realistically shaped (alpha/order vectors sized like a p=16 solve),
  // so a codec regression (an accidental copy, a quadratic append) moves
  // this number long before it hurts a real cluster run.
  for (const std::size_t records :
       options.quick ? std::vector<std::size_t>{16}
                     : std::vector<std::size_t>{16, 256}) {
    service::FragmentPushBody push;
    push.worker_id = "micro-worker";
    push.shard_index = 7;
    push.shard_id = "0123456789abcdef0123456789abcdef";
    push.plan_fingerprint = "fedcba9876543210fedcba9876543210";
    push.fragment.assign(16 * 1024, 'f');  // one mid-size shard fragment
    Rng rng(spec.seed + records);
    for (std::size_t i = 0; i < records; ++i) {
      service::SolveRecord record;
      record.solver = "fifo_optimal";
      record.solved = true;
      record.validated = true;
      record.throughput = rng.uniform(0.1, 2.0);
      for (std::size_t w = 0; w < 16; ++w) {
        record.alpha.push_back(rng.uniform(0.0, 1.0));
        record.send_order.push_back(w);
        record.return_order.push_back(15 - w);
      }
      record.workers_used = 16;
      record.lp_pivots = 16;
      record.wall_seconds = rng.uniform(0.0, 0.01);
      service::WireCacheEntry entry;
      entry.hash = push.shard_id;
      entry.key = "v1 solver fifo_optimal p 16 key " + std::to_string(i);
      entry.body = service::encode_result_body(record);
      push.records.push_back(std::move(entry));
    }
    bench("wire_frame_roundtrip", records, [&] {
      const std::string frame =
          service::encode_frame(service::FrameType::FragmentPush,
                                service::encode_fragment_push(push));
      const service::FrameDecode decoded = service::try_decode_frame(frame);
      DLSCHED_EXPECT(decoded.status == service::DecodeStatus::Ok &&
                         decoded.consumed == frame.size(),
                     "wire_frame_roundtrip: frame failed to round-trip");
      const service::FragmentPushBody back =
          service::decode_fragment_push(decoded.frame.payload);
      DLSCHED_EXPECT(back.records.size() == push.records.size() &&
                         back.fragment == push.fragment,
                     "wire_frame_roundtrip: body failed to round-trip");
    });
  }

  // The affine substrate: the exact FIFO LP with latency constants, the
  // subset-enumeration selection, and the realize -> validate -> DES-replay
  // tail the affine solvers run per solve.
  AffineCosts affine_costs;
  affine_costs.send_latency = 0.01;
  affine_costs.compute_latency = 0.002;
  affine_costs.return_latency = 0.005;
  const auto all_workers = [](const StarPlatform& platform) {
    std::vector<std::size_t> ids(platform.size());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    return ids;
  };
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{4, 8, 12}) {
    const StarPlatform platform = platform_for(p);
    bench("affine_lp_exact", p, [&] {
      (void)solve_affine_fifo(platform, all_workers(platform),
                              affine_costs);
    });
  }
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{4, 8, 12}) {
    const StarPlatform platform = platform_for(p);
    bench("affine_subset_select", p, [&] {
      (void)affine::solve_affine_fifo_best_subset(platform, affine_costs);
    });
  }
  // The Precision::Fast substrate: the double-precision affine FIFO LP and
  // the fast-screened subset enumeration (double LP per candidate, exact
  // re-solve of the margin set only).
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{4, 8, 12}) {
    const StarPlatform platform = platform_for(p);
    bench("affine_fast_lp", p, batched(kDoubleLpBatch, [&] {
            (void)solve_affine_fifo_fast(platform, all_workers(platform),
                                         affine_costs);
          }));
  }
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{4, 8, 12}) {
    const StarPlatform platform = platform_for(p);
    bench("affine_fast_subset_select", p, [&] {
      (void)affine::solve_affine_fifo_best_subset(
          platform, affine_costs, /*max_workers=*/12,
          /*time_budget_seconds=*/0.0, /*use_fast_lp=*/true);
    });
  }
  // The sweeps' own selection and search jobs: Precision::Fast requests
  // with linear costs through the registry, as a micro_solvers grid cell
  // runs them.  affine_subset, local_search and brute_force run their
  // parts on free pool lanes, so their times depend on the core count.
  if (!options.quick) {
    SolveRequest request;
    request.platform = platform_for(12);
    request.precision = Precision::Fast;
    for (const char* solver : {"affine_subset", "affine_local_search"}) {
      bench(std::string(solver) + "_fast_linear", 12, [&] {
        (void)SolverRegistry::instance().run(solver, request);
      });
    }
    bench("local_search_fast", 12, [&] {
      (void)SolverRegistry::instance().run("local_search", request);
    });
    // One p = 4 search takes under the gate's 1 ms floor: time 10.
    request.platform = platform_for(4);
    bench("brute_force_fast", 4, batched(10, [&] {
            (void)SolverRegistry::instance().run("brute_force", request);
          }));
  }
  // The warm-start substrate: the Gray-code subset chain with and without
  // basis reuse (counters expose the pivot ledger), an optimal-basis warm
  // re-solve of the plain FIFO LP (the grid's axis-step reuse in
  // miniature), and the churn re-solve entry point.
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{8, 12}) {
    const StarPlatform platform = platform_for(p);
    std::map<std::string, std::uint64_t> warm_counters;
    bench(
        "affine_subset_warm", p,
        [&] {
          const affine::AffineSelectionResult result =
              affine::solve_affine_fifo_best_subset(platform, affine_costs,
                                                    affine::AffineSubsetOptions{});
          warm_counters["lp_pivots"] = result.lp_pivots_total;
          warm_counters["lp_warm_starts"] = result.lp_warm_starts;
          warm_counters["lp_pivots_saved"] = result.lp_pivots_saved;
          warm_counters["subsets_pruned"] = result.subsets_pruned;
          warm_counters["subsets_screened"] = result.subsets_screened;
        },
        &warm_counters);
    std::map<std::string, std::uint64_t> cold_counters;
    bench(
        "affine_subset_cold", p,
        [&] {
          affine::AffineSubsetOptions subset_options;
          subset_options.warm_start = false;
          subset_options.prune = false;
          subset_options.screen = false;
          const affine::AffineSelectionResult result =
              affine::solve_affine_fifo_best_subset(platform, affine_costs,
                                                    subset_options);
          cold_counters["lp_pivots"] = result.lp_pivots_total;
        },
        &cold_counters);
  }
  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{4, 8, 12}) {
    const StarPlatform platform = platform_for(p);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    const ScenarioSolution cold = solve_scenario(platform, scenario);
    const std::vector<double> alpha = cold.alpha_double();
    std::map<std::string, std::uint64_t> counters;
    bench(
        "scenario_lp_warm", p,
        [&] {
          LpOptions lp_options;
          lp_options.warm_basis = warm_basis_for(alpha, scenario);
          const ScenarioSolution warm =
              solve_scenario(platform, scenario, lp_options);
          counters["lp_pivots"] = warm.lp_pivots;
          counters["lp_warm_starts"] = warm.lp_warm_starts;
          counters["cold_lp_pivots"] = cold.lp_pivots;
        },
        &counters);
  }
  for (const std::size_t p : options.quick ? std::vector<std::size_t>{4}
                                           : std::vector<std::size_t>{8,
                                                                      12}) {
    const StarPlatform platform = platform_for(p);
    SolveRequest request;
    request.platform = platform;
    request.costs = affine_costs;
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    const ScenarioSolution base =
        solve_scenario(platform, scenario, affine_costs.lp_options());
    request.warm_alpha = base.alpha_double();
    const PlatformDelta delta = PlatformDelta::slowdown(p / 2, 1.5);
    std::map<std::string, std::uint64_t> counters;
    bench(
        "churn_resolve", p,
        [&] {
          const ResolveResult result = resolve(request, delta);
          counters["lp_pivots"] = result.solution.lp_pivots;
          counters["lp_warm_starts"] = result.solution.lp_warm_starts;
        },
        &counters);
  }

  for (const std::size_t p :
       options.quick ? std::vector<std::size_t>{4}
                     : std::vector<std::size_t>{4, 12}) {
    const StarPlatform platform = platform_for(p);
    const ScenarioSolution solution =
        solve_affine_fifo(platform, all_workers(platform), affine_costs);
    bench("affine_realize_replay", p, [&] {
      const affine::AffineRealization realization =
          affine::realize_affine(platform, solution, affine_costs);
      DLSCHED_EXPECT(
          affine::validate_affine(platform, realization, affine_costs).ok,
          "affine micro realization failed validation");
      (void)affine::replay_affine(platform, realization);
    });
  }

  table.print_aligned(log);
}

// ------------------------------------------------------------------- churn --

void run_churn(const ExperimentSpec& spec, const RunOptions& options,
               BenchJsonWriter* json, std::ostream* csv, RunSummary& summary,
               std::ostream& log) {
  (void)options;
  const std::vector<std::size_t> p_values =
      spec.workers.empty() ? std::vector<std::size_t>{8} : spec.workers;

  // Fixed affine constants: latencies are what make churn bite (every
  // enrolled worker pays them on every re-solve), and keeping them off
  // the spec's grid axes keeps the churn kind a one-dimensional surface.
  AffineCosts costs;
  costs.send_latency = 0.01;
  costs.compute_latency = 0.002;
  costs.return_latency = 0.005;

  const std::vector<std::string> header{
      "p",           "rep",         "event",     "kind",
      "warm_wall_seconds", "cold_wall_seconds", "warm_pivots",
      "cold_pivots", "retention"};
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  Table table({"p", "events", "warm_accepted", "mean_warm_wall_seconds",
               "mean_cold_wall_seconds", "pivots_saved", "mean_retention"});
  table.set_precision(6);

  for (const std::size_t p : p_values) {
    Accumulator warm_wall, cold_wall, retention_acc;
    std::size_t events = 0;
    std::size_t warm_accepted = 0;
    std::size_t warm_pivots_sum = 0;
    std::size_t cold_pivots_sum = 0;
    for (std::size_t rep = 0; rep < spec.repetitions; ++rep) {
      Rng rng(spec.seed + 7919 * p + rep);
      SolveRequest request;
      request.platform = gen::random_star(p, rng, 0.5);
      request.costs = costs;
      // The running computation: solve once, then let the platform drift.
      ScenarioSolution current = solve_scenario(
          request.platform, Scenario::fifo(request.platform.order_by_c()),
          costs.lp_options());
      std::vector<double> alpha = current.alpha_double();
      ++summary.jobs;
      ++summary.solved;
      for (std::size_t e = 0; e < spec.churn_events; ++e) {
        // Deterministic event stream, cycling slowdown / leave / join so
        // the platform size stays near p across the chain.
        PlatformDelta delta;
        const std::size_t size = request.platform.size();
        const auto target = [&] {
          return static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        };
        switch (e % 3) {
          case 0:
            delta = PlatformDelta::slowdown(target(),
                                            rng.uniform(1.2, 3.0));
            break;
          case 1:
            if (size > 2) {
              delta = PlatformDelta::leave(target());
            } else {
              delta = PlatformDelta::slowdown(target(),
                                              rng.uniform(1.2, 3.0));
            }
            break;
          default: {
            Worker joined;
            joined.c = rng.uniform(0.1, 1.0);
            joined.w = rng.uniform(0.2, 2.0);
            joined.d = 0.5 * joined.c;
            delta = PlatformDelta::join(joined);
            break;
          }
        }

        request.warm_alpha = alpha;
        const auto warm_t = steady_clock::now();
        const ResolveResult warm = resolve(request, delta);
        const double warm_seconds = elapsed_since(warm_t);
        SolveRequest cold_request = request;
        cold_request.warm_alpha.clear();
        const auto cold_t = steady_clock::now();
        const ResolveResult cold = resolve(cold_request, delta);
        const double cold_seconds = elapsed_since(cold_t);
        // The warm hint must never move the answer -- only the pivots.
        DLSCHED_EXPECT(
            warm.solution.throughput == cold.solution.throughput,
            "churn: warm re-solve diverged from the cold re-solve");

        const ChurnedPlatform churned{warm.platform, warm.old_to_new,
                                      warm.costs};
        const StaleExecution stale =
            execute_stale(churned, alpha, current.scenario);
        const double rho = warm.solution.throughput.to_double();
        const double retention = rho > 0.0 ? stale.rate / rho : 0.0;

        ++events;
        warm_accepted += warm.solution.lp_warm_starts;
        warm_pivots_sum += warm.solution.lp_pivots;
        cold_pivots_sum += cold.solution.lp_pivots;
        warm_wall.add(warm_seconds);
        cold_wall.add(cold_seconds);
        retention_acc.add(retention);
        ++summary.jobs;
        ++summary.solved;

        if (csv_writer) {
          csv_writer->cell(p)
              .cell(rep)
              .cell(e)
              .cell(std::string(delta.kind_name()))
              .cell(warm_seconds)
              .cell(cold_seconds)
              .cell(warm.solution.lp_pivots)
              .cell(cold.solution.lp_pivots)
              .cell(retention);
          csv_writer->end_row();
        }
        if (json) {
          json->row(
              JsonObject()
                  .add("p", p)
                  .add("rep", rep)
                  .add("event", e)
                  .add("kind", delta.kind_name())
                  .add("workers", warm.platform.size())
                  .add("warm_wall_seconds", warm_seconds)
                  .add("cold_wall_seconds", cold_seconds)
                  .add("warm_pivots", warm.solution.lp_pivots)
                  .add("cold_pivots", cold.solution.lp_pivots)
                  .add("lp_warm_starts", warm.solution.lp_warm_starts)
                  .add("throughput", rho)
                  .add("stale_rate", stale.rate)
                  .add("retention", retention));
          ++summary.rows;
        }

        // The chain advances on the churned platform: the warm solution
        // becomes the next event's running computation.
        request.platform = warm.platform;
        request.costs = warm.costs;
        current = warm.solution;
        alpha = current.alpha_double();
      }
    }
    table.begin_row()
        .cell(p)
        .cell(events)
        .cell(warm_accepted)
        .cell(warm_wall.mean())
        .cell(cold_wall.mean())
        .cell(cold_pivots_sum > warm_pivots_sum
                  ? cold_pivots_sum - warm_pivots_sum
                  : 0)
        .cell(retention_acc.mean());
  }
  table.print_aligned(log);
  log << "expected: warm re-solves match cold bit for bit with fewer "
         "pivots; retention < 1 is the throughput lost by not re-solving\n";
}

}  // namespace dlsched::experiments::detail
