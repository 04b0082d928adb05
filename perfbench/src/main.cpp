// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--golden FILE] [--commit SHA]
//                    [--source-digest HEX] [--corrupt]
//   perfbench_driver golden --workload NAME --seed N
//
// The first form prints a run record, a human-readable table and, as its
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics untraced (--trace 0), the per-layer metrics from
// a traced run (--trace 1).  It exits 1 when an answer is wrong or a
// validity check fails; an invalid run reports no numbers.  --corrupt
// falsifies one answer before the checks, so the run must fail.  The
// second form prints the golden-table line for (workload, seed).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "answers.hpp"
#include "experiments/emitter.hpp"
#include "ledger.hpp"
#include "run_record.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

const std::vector<std::string> kWorkloads = {"serve_cold", "serve_warm",
                                             "sweep_solvers", "sweep_light"};

/// Set-ups per untraced run; setup_s is their median.  serve_warm's
/// set-up solves 1000 requests; the others' take a millisecond or tens of
/// them, which a single reading of would mostly measure the machine.
std::size_t setups_for(const std::string& workload) {
  return workload == "serve_warm" ? 3 : 15;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Units of the per-layer metrics, in report order.
const std::vector<std::pair<std::string, std::string>> kLayerUnits = {
    {"service.wire_us", "us"},
    {"service.admit_us", "us"},
    {"service.transport_us", "us"},
    {"service.queue_wait_us", "us"},
    {"service.batch_size", "count"},
    {"service.settle_us", "us"},
    {"service.hit_ratio", "ratio"},
    {"core.solve_us", "us"},
    {"core.validate_us", "us"},
    {"core.batch_overhead_us", "us"},
    {"core.pool_busy_share", "ratio"},
    {"lp.pivots", "count"},
    {"numeric.arena_hit_ratio", "ratio"},
    {"affine.solve_s", "s"},
    {"affine.subsets_skipped_ratio", "ratio"},
    {"experiments.cache_lookup_us", "us"},
    {"experiments.cache_stores", "count"},
    {"experiments.shard_overhead_us", "us"},
    {"experiments.assemble_us", "us"},
    {"experiments.plan_ms", "ms"},
    {"bench.send_lag_p99_ms", "ms"},
    {"bench.unattributed_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

int usage(std::ostream& out, int code) {
  out << "usage: perfbench_driver --workload NAME --seed N --seconds S "
         "--trace 0|1 --work-dir DIR [--golden FILE] [--commit SHA] "
         "[--source-digest HEX] [--corrupt]\n"
         "       perfbench_driver golden --workload NAME --seed N\n"
         "workloads: serve_cold serve_warm sweep_solvers sweep_light\n";
  return code;
}

Outcome run_phase(const Config& config, const Phase& phase) {
  if (config.workload == "serve_cold") return run_serve_cold(config, phase);
  if (config.workload == "serve_warm") return run_serve_warm(config, phase);
  return run_sweep(config, phase);
}

std::vector<Metric> end_to_end(const Outcome& out) {
  return {
      {"setup_s", quantile(out.setup_s, 0.5), "s"},
      {"p50_ms", out.p50_ms, "ms"},
      {"throughput_rps", out.ops_per_s, "1/s"},
      {"jobs_per_s", out.jobs_per_s, "1/s"},
      {"peak_rss_mb", out.peak_rss_mb, "MiB"},
  };
}

/// The per-layer facts each workload rests on (README.md), checked on the
/// traced run's ledger.  `wall_s` is the traced phase's measured time.
std::vector<std::string> split_checks(const std::string& workload,
                                      const std::map<std::string, double>& m,
                                      double ops, double wall_s) {
  const auto verdict = [](bool holds) { return holds ? "holds" : "FAILS"; };
  if (workload == "serve_cold") {
    std::string largest;
    for (const char* part :
         {"service.wire_us", "service.admit_us", "service.transport_us",
          "service.queue_wait_us", "service.settle_us", "core.solve_us",
          "core.validate_us", "core.batch_overhead_us",
          "experiments.cache_lookup_us"}) {
      if (largest.empty() || m.at(part) > m.at(largest)) largest = part;
    }
    return {"largest part of a request's latency: " + largest + " (" +
            verdict(largest == "service.queue_wait_us") + ")"};
  }
  if (workload == "serve_warm") {
    return {std::string("no solve spans while measuring (") +
            verdict(m.at("core.solve_us") == 0.0) + ")"};
  }
  const double share = m.at("core.solve_us") * ops * 1e-6 / wall_s;
  if (workload == "sweep_solvers") {
    return {"summed solve self time is " + std::to_string(share) +
            " x wall, above 1 (" + verdict(share > 1.0) + ")"};
  }
  return {"summed solve self time is " + std::to_string(share) +
          " x wall, under 0.5 (" + verdict(share < 0.5) + ")"};
}

std::string render_result(bool correct, std::size_t attempted,
                          std::size_t failed,
                          const std::vector<Metric>& metrics) {
  dlsched::experiments::JsonObject values;
  for (const Metric& m : metrics) {
    dlsched::experiments::JsonObject value;
    value.add("value", std::isfinite(m.value) ? m.value : 0.0)
        .add("unit", m.unit);
    values.add_raw(m.name, value.render());
  }
  dlsched::experiments::JsonObject result;
  result.add("correct", correct)
      .add("attempted", attempted)
      .add("failed", failed)
      .add_raw("metrics", values.render());
  return result.render();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DLSCHED_EXPECT(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int run(const dlsched::CliArgs& args, Config& config) {
  const double seconds = args.get_double("seconds", 10.0);
  const std::int64_t trace = args.get_int("trace", 0);
  const auto work_dir = args.get("work-dir");
  DLSCHED_EXPECT(seconds > 0.0 && seconds <= 600.0,
                 "--seconds wants a value in (0, 600]");
  DLSCHED_EXPECT(trace == 0 || trace == 1, "--trace wants 0 or 1");
  DLSCHED_EXPECT(work_dir.has_value(), "--work-dir DIR is required");
  config.work_dir = *work_dir;
  if (const auto golden = args.get("golden")) {
    config.golden_table = read_file(*golden);
  }
  fs::create_directories(config.work_dir);

  const RunRecord record = make_run_record(
      config.workload, config.seed, args.get_or("commit", ""),
      args.get_or("source-digest", ""), config.work_dir);
  std::cout << "run record: " << render_run_record(record) << '\n';
  for (const std::string& warning : run_record_warnings(record)) {
    std::cerr << "perfbench: warning: " << warning << '\n';
  }

  const CpuTicks ticks_before = cpu_ticks();
  Outcome result;
  std::vector<Metric> metrics;
  if (trace == 0) {
    result = run_phase(config,
                       {seconds, setups_for(config.workload), false, "m"});
    metrics = end_to_end(result);
  } else {
    // Half the time untraced, half traced: their ratio is the tracing
    // overhead, and only the traced half feeds the ledger.
    const Outcome plain = run_phase(config, {seconds / 2, 1, false, "u"});
    result = run_phase(config, {seconds / 2, 1, true, "t"});
    result.traced.untraced_p50_ms = plain.p50_ms;
    result.traced.traced_p50_ms = result.p50_ms;
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.invalid.insert(result.invalid.end(), plain.invalid.begin(),
                          plain.invalid.end());
    const std::map<std::string, double> layers =
        layer_metrics(result.traced);
    for (const auto& [name, unit] : kLayerUnits) {
      metrics.push_back({name, layers.at(name), unit});
    }
    for (std::string& check :
         split_checks(config.workload, layers,
                      static_cast<double>(result.traced.ops), result.busy_s)) {
      result.notes.push_back("split: " + check);
    }
  }
  std::error_code ec;
  fs::remove_all(config.work_dir, ec);
  result.notes.push_back(
      "host steal: " +
      std::to_string(100.0 * steal_share(ticks_before, cpu_ticks())) +
      "% of the machine's CPU time during the run");

  const double error_rate =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  const bool valid = result.invalid.empty() && result.attempted > 0;
  const bool correct = valid && result.failed == 0;
  std::cout << "workload " << config.workload << ": " << result.attempted
            << " answers attempted, " << result.failed
            << " failed, error_rate " << error_rate << '\n';
  for (const std::string& note : result.notes) {
    std::cout << "  note: " << note << '\n';
  }
  for (const std::string& reason : result.invalid) {
    std::cout << "  INVALID: " << reason << '\n';
  }
  if (!valid) metrics.clear();  // an invalid run reports no numbers
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  }
  if (trace == 0 && valid) {
    std::cout << "  p90_ms = " << result.p90_ms << " ms (not gated)\n"
              << "  p99_ms = " << result.p99_ms << " ms (not gated)\n";
  }
  std::cout << render_result(correct, result.attempted, result.failed,
                             metrics)
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dlsched::CliArgs args =
        dlsched::CliArgs::parse(argc, argv, {"corrupt"});
    Config config;
    config.workload = args.get_or("workload", "");
    config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
    config.threads = std::max(1u, std::thread::hardware_concurrency());
    config.corrupt = args.has("corrupt");
    if (std::find(kWorkloads.begin(), kWorkloads.end(), config.workload) ==
        kWorkloads.end()) {
      std::cerr << "perfbench: unknown workload '" << config.workload << "'\n";
      return usage(std::cerr, 2);
    }
    if (!args.positional().empty()) {
      if (args.positional().front() != "golden") return usage(std::cerr, 2);
      const std::string digest = config.workload.rfind("serve_", 0) == 0
                                     ? serve_reference_digest(config)
                                     : sweep_reference_digest(config);
      std::cout << config.workload << ' ' << config.seed << ' ' << digest
                << '\n';
      return 0;
    }
    return run(args, config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
