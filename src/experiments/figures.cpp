#include "experiments/figures.hpp"

#include "core/solver.hpp"
#include "core/throughput.hpp"
#include "schedule/rounding.hpp"
#include "sim/des_executor.hpp"
#include "util/fan_out.hpp"
#include "util/stats.hpp"

namespace dlsched::experiments {

HeuristicTimes run_heuristic(const StarPlatform& platform,
                             Heuristic heuristic,
                             std::uint64_t total_tasks,
                             std::uint64_t noise_seed) {
  SolveRequest request;
  request.platform = platform;
  request.precision = Precision::Fast;
  const ScenarioSolutionD solution =
      SolverRegistry::instance()
          .run(solver_name_for(heuristic), request)
          .solution_double();
  HeuristicTimes times;
  times.lp = makespan_for_load(solution.throughput,
                               static_cast<double>(total_tasks));

  // Integral loads per the paper's rounding policy (sigma_1 order).
  std::vector<double> ordered;
  ordered.reserve(solution.scenario.send_order.size());
  const double scale = static_cast<double>(total_tasks) / solution.throughput;
  for (std::size_t w : solution.scenario.send_order) {
    ordered.push_back(solution.alpha[w] * scale);
  }
  const std::vector<std::uint64_t> integral =
      round_loads(ordered, total_tasks);
  std::vector<double> loads(platform.size(), 0.0);
  for (std::size_t k = 0; k < solution.scenario.send_order.size(); ++k) {
    loads[solution.scenario.send_order[k]] =
        static_cast<double>(integral[k]);
  }

  const sim::DesResult result =
      sim::execute(platform, solution.scenario, loads,
                   sim::NoiseModel::cluster_like(noise_seed));
  times.real = result.makespan;
  return times;
}

namespace {

/// The six raw numbers one trial contributes.
struct TrialOutcome {
  double inc_c_lp = 0.0;
  double inc_c_ratio = 0.0;
  double inc_w_ratio_lp = 0.0;
  double inc_w_ratio_real = 0.0;
  double lifo_ratio_lp = 0.0;
  double lifo_ratio_real = 0.0;
};

}  // namespace

EnsembleRow run_ensemble(const FigureConfig& config,
                         const SpeedGenerator& generator,
                         std::size_t matrix_size, bool include_inc_w) {
  MatrixApp::Config app_config;
  app_config.matrix_size = matrix_size;
  const MatrixApp app(app_config);

  // Seeds derived sequentially so results do not depend on thread count.
  Rng master_rng(config.seed + matrix_size);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seeds(
      config.platforms);
  for (auto& s : seeds) {
    s.first = master_rng.fork_seed();   // platform stream
    s.second = master_rng.fork_seed();  // noise stream
  }

  std::vector<TrialOutcome> outcomes(config.platforms);
  auto run_trial = [&](std::size_t trial) {
    Rng platform_rng(seeds[trial].first);
    const std::uint64_t noise_seed = seeds[trial].second;
    StarPlatform platform =
        app.platform(generator(config.workers, platform_rng));
    if (config.comm_speed_up != 1.0 || config.comp_speed_up != 1.0) {
      platform = platform.speed_up(config.comm_speed_up,
                                   config.comp_speed_up);
    }
    const HeuristicTimes inc_c = run_heuristic(
        platform, Heuristic::IncC, config.total_tasks, noise_seed);
    const HeuristicTimes lifo = run_heuristic(
        platform, Heuristic::Lifo, config.total_tasks, noise_seed ^ 0x10);
    TrialOutcome& out = outcomes[trial];
    out.inc_c_lp = inc_c.lp;
    out.inc_c_ratio = inc_c.real / inc_c.lp;
    out.lifo_ratio_lp = lifo.lp / inc_c.lp;
    out.lifo_ratio_real = lifo.real / inc_c.lp;
    if (include_inc_w) {
      const HeuristicTimes inc_w = run_heuristic(
          platform, Heuristic::IncW, config.total_tasks, noise_seed ^ 0x20);
      out.inc_w_ratio_lp = inc_w.lp / inc_c.lp;
      out.inc_w_ratio_real = inc_w.real / inc_c.lp;
    }
  };

  fan_out(config.platforms, lane_count(config.threads, config.platforms),
          run_trial);

  // Deterministic fold in trial order.
  Accumulator inc_c_lp;
  Accumulator inc_c_real;
  Accumulator inc_w_lp;
  Accumulator inc_w_real;
  Accumulator lifo_lp;
  Accumulator lifo_real;
  for (const TrialOutcome& out : outcomes) {
    inc_c_lp.add(out.inc_c_lp);
    inc_c_real.add(out.inc_c_ratio);
    lifo_lp.add(out.lifo_ratio_lp);
    lifo_real.add(out.lifo_ratio_real);
    if (include_inc_w) {
      inc_w_lp.add(out.inc_w_ratio_lp);
      inc_w_real.add(out.inc_w_ratio_real);
    }
  }

  EnsembleRow row;
  row.matrix_size = matrix_size;
  row.inc_c_lp = inc_c_lp.mean();
  row.inc_c_real_ratio = inc_c_real.mean();
  row.lifo_lp_ratio = lifo_lp.mean();
  row.lifo_real_ratio = lifo_real.mean();
  if (include_inc_w) {
    row.inc_w_lp_ratio = inc_w_lp.mean();
    row.inc_w_real_ratio = inc_w_real.mean();
  }
  return row;
}

}  // namespace dlsched::experiments
