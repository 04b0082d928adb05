// sweep_solvers and sweep_light: `experiments::run_spec` on a built-in
// grid spec.  The passes run without a result cache: on a disk-backed
// checkout the cache's file-per-entry stores take most of a light pass
// and vary several-fold between runs (README.md).  serve_cold and
// serve_warm measure the cache's store and lookup paths.
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "answers.hpp"
#include "experiments/engine.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec_registry.hpp"
#include "obs/trace.hpp"
#include "run_record.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace ex = dlsched::experiments;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kSolversSalt = 3;
constexpr std::uint64_t kLightSalt = 4;
// Every pass draws new platforms, so a run averages over many of them.
// micro_solvers keeps its own 3 sizes x 3 = 9 shards (about 1 s);
// smoke: 2 sizes x 500 = 1000 shards.
constexpr std::size_t kSolversRepetitions = 3;
constexpr std::size_t kLightRepetitions = 500;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The input of one pass: a built-in spec under a seed derived from
/// --seed and the pass number.
ex::ExperimentSpec sweep_spec(const Config& config, std::size_t pass) {
  const bool light = config.workload == "sweep_light";
  ex::ExperimentSpec spec =
      ex::find_builtin_spec(light ? "smoke" : "micro_solvers");
  spec.seed = derive_seed(
      derive_seed(config.seed, light ? kLightSalt : kSolversSalt), pass);
  spec.repetitions = light ? kLightRepetitions : kSolversRepetitions;
  return spec;
}

/// Every job of the grid, in planner order.
std::vector<Job> planned_jobs(const ex::ExperimentSpec& spec) {
  std::vector<Job> jobs;
  for (const ex::CompiledShard& shard : ex::plan_shards(spec)) {
    for (const ex::GridCell& cell : shard.cells) {
      for (const ex::GridSlot& slot : cell.slots) {
        jobs.push_back({slot.solver, cell.request});
      }
    }
  }
  return jobs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A whole-number row field; 0 when absent.
std::uint64_t row_count(const BenchRow& row, const char* key) {
  const auto it = row.find(key);
  return it == row.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

/// The answer fields of each job's reference answer.
std::vector<std::string> reference_fields(const std::vector<Job>& jobs,
                                          std::size_t threads) {
  std::vector<std::string> fields;
  for (const SolveRecord& r : reference_records(jobs, threads)) {
    fields.push_back(answer_fields(r));
  }
  return fields;
}

/// Folds each job's answer fields into one digest.
std::uint64_t fold_answer_fields(const std::vector<std::string>& fields) {
  std::uint64_t digest = kDigestSeed;
  for (const std::string& text : fields) {
    digest = fold_digest(digest, text_digest(text));
  }
  return digest;
}

/// What one measured pass left to check.
struct Pass {
  double wall_s = 0.0;
  double steal_share = 0.0;  ///< of the machine's CPU time during the pass
  ex::RunSummary summary;
  std::vector<std::uint64_t> answers;  ///< digest of each row's answer
};

}  // namespace

Outcome run_sweep(const Config& config, const Phase& phase) {
  Outcome out;

  // Set-up: the first pass's spec and its planned grid.
  std::size_t grid_jobs = 0;
  for (std::size_t s = 0; s < phase.setups; ++s) {
    const auto t0 = Clock::now();
    grid_jobs = planned_jobs(sweep_spec(config, 0)).size();
    out.setup_s.push_back(seconds_since(t0));
  }

  // One small untimed pass first: the process's first run_spec call pays
  // for page faults and cold instruction caches that later calls do not.
  const std::string dir = config.work_dir + "/" + phase.tag + "sweep";
  const auto options_for = [&](const std::string& pass_dir,
                               std::ostream& log) {
    fs::create_directories(pass_dir);
    ex::RunOptions options;
    options.out_json = pass_dir + "/BENCH.json";
    options.out_csv = pass_dir + "/sweep.csv";
    options.threads = config.threads;
    options.log = &log;
    return options;
  };
  std::ostringstream log;
  {
    ex::ExperimentSpec small = sweep_spec(config, 0);
    small.repetitions = 1;
    (void)ex::run_spec(small, options_for(dir + "/warmup", log));
  }

  // Passes until the time is up, each on new platforms and writing its
  // artifacts afresh.
  std::vector<Pass> passes;
  TraceWindow trace(phase.traced);
  const auto loop_start = Clock::now();
  while (passes.empty() || seconds_since(loop_start) < phase.seconds) {
    const std::string pass_dir = dir + "/pass" + std::to_string(passes.size());
    const ex::ExperimentSpec spec = sweep_spec(config, passes.size());
    const ex::RunOptions options = options_for(pass_dir, log);
    log.str("");

    Pass pass;
    const CpuTicks ticks = cpu_ticks();
    const auto t0 = Clock::now();
    {
      const dlsched::obs::ObsSpan span("bench", "run_spec");
      pass.summary = ex::run_spec(spec, options);
    }
    pass.wall_s = seconds_since(t0);
    pass.steal_share = steal_share(ticks, cpu_ticks());
    trace.keep(out.traced);

    for (const BenchRow& row : read_bench_rows(read_file(options.out_json))) {
      pass.answers.push_back(text_digest(answer_fields(row)));
      out.traced.lp_pivots += row_count(row, "lp_pivots");
      if (row.at("solver") == "\"affine_subset\"") {
        out.traced.affine_tried += row_count(row, "scenarios_tried");
        out.traced.affine_skipped += row_count(row, "subsets_pruned") +
                                     row_count(row, "subsets_screened");
      }
    }
    out.traced.shards += pass.summary.shards;
    ++out.traced.passes;
    out.traced.ops += pass.summary.jobs;
    out.busy_s += pass.wall_s;
    passes.push_back(std::move(pass));
    std::error_code ec;
    fs::remove_all(pass_dir, ec);
  }
  trace.close(out.traced);
  out.traced.threads = config.threads;
  out.peak_rss_mb = peak_rss_mb();
  std::error_code ec;
  fs::remove_all(dir, ec);

  // Latency and rate over the quieter half of the passes (stats.hpp): half,
  // not a quarter as on the serve workloads, because the passes differ in
  // their platforms as well.
  std::vector<double> steal;
  for (const Pass& pass : passes) steal.push_back(pass.steal_share);
  const std::vector<bool> quiet = quiet_windows(steal, 0.5);
  std::vector<double> wall_ms;
  std::vector<double> jobs_per_s;
  std::string walls = std::to_string(passes.size()) +
                      " passes, run_spec walls (ms, * = quiet):";
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const double ms = passes[k].wall_s * 1000.0;
    walls += ' ' + std::to_string(ms) + (quiet[k] ? "*" : "");
    if (!quiet[k]) continue;
    wall_ms.push_back(ms);
    jobs_per_s.push_back(static_cast<double>(passes[k].summary.jobs) /
                         passes[k].wall_s);
  }
  out.notes.push_back(walls);
  out.p50_ms = quantile(wall_ms, 0.50);
  out.p90_ms = quantile(wall_ms, 0.90);
  out.p99_ms = quantile(wall_ms, 0.99);
  out.ops_per_s = 1000.0 / out.p50_ms;
  out.jobs_per_s = quantile(jobs_per_s, 0.50);

  if (config.corrupt && !passes[0].answers.empty()) ++passes[0].answers[0];
  for (std::size_t k = 0; k < passes.size(); ++k) {
    const Pass& pass = passes[k];
    const std::vector<std::string> expected =
        reference_fields(planned_jobs(sweep_spec(config, k)), config.threads);

    // Validity: the whole grid ran, and nothing came from a cache.
    if (pass.summary.jobs != grid_jobs || expected.size() != grid_jobs ||
        pass.summary.cache_hits != 0) {
      out.invalid.push_back(
          "pass " + std::to_string(k) + " ran " +
          std::to_string(pass.summary.jobs) + " jobs with " +
          std::to_string(pass.summary.cache_hits) +
          " cache hits; the grid has " + std::to_string(expected.size()));
    }

    // Answers: the artifact's rows, one per job in planner order, against
    // the reference answers; the first pass's also against the golden
    // digest.
    out.attempted += expected.size();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (i >= pass.answers.size() ||
          pass.answers[i] != text_digest(expected[i])) {
        ++out.failed;
      }
    }
    if (k == 0 &&
        !check_golden(config, digest_hex(fold_answer_fields(expected)), out)) {
      out.failed = std::max(out.failed, expected.size());
    }
  }
  return out;
}

std::string sweep_reference_digest(const Config& config) {
  return digest_hex(fold_answer_fields(
      reference_fields(planned_jobs(sweep_spec(config, 0)), config.threads)));
}

}  // namespace perfbench
