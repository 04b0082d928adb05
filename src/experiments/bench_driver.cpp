#include "experiments/bench_driver.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>

#include "experiments/engine.hpp"
#include "experiments/spec_registry.hpp"
#include "obs/trace.hpp"
#include "service/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace dlsched::experiments {

namespace {

// ------------------------------------------------------------ cluster side --

std::atomic<int> g_bench_signal{0};

extern "C" void on_bench_signal(int sig) { g_bench_signal.store(sig); }

/// `--worker tcp://HOST:PORT`: join a coordinator's claim board instead of
/// running a spec.  The spec itself arrives over the wire with each lease.
int run_worker_mode(const CliArgs& args, const std::string& endpoint) {
  service::TcpWorkerOptions options;
  options.endpoint = endpoint;
  options.worker_id =
      args.get_or("worker-id", "w" + std::to_string(::getpid()));
  const std::int64_t threads = args.get_int("threads", 0);
  DLSCHED_EXPECT(threads >= 0, "--threads wants a non-negative count");
  options.threads = static_cast<std::size_t>(threads);
  options.scratch_dir = args.get_or("scratch-dir", "");
  const std::int64_t abandon = args.get_int("abandon-after", 0);
  DLSCHED_EXPECT(abandon >= 0, "--abandon-after wants a non-negative count");
  options.abandon_after = static_cast<std::size_t>(abandon);
  const service::TcpWorkerSummary summary =
      service::run_tcp_worker(options, std::cout);
  std::cout << "worker " << options.worker_id << ": " << summary.executed
            << " shard(s) executed, " << summary.discarded << " discarded, "
            << summary.jobs << " job(s), " << summary.solved << " solved, "
            << summary.cache_hits << " cache hit(s)"
            << (summary.retired ? ", retired" : "")
            << (summary.drained ? ", drained" : "")
            << (summary.abandoned ? ", abandoned a lease" : "") << "\n";
  return 0;
}

/// `--workers N` forks N local TCP workers; `--workers auto[:MAX]`
/// autoscales them to the backlog.  Either starts a coordinator (on
/// 127.0.0.1:0 unless `--coordinator` names the address); without the
/// flag a `--coordinator` waits for external `--worker` processes.
void parse_workers(const CliArgs& args, RunOptions& options) {
  const std::optional<std::string> text = args.get("workers");
  if (!text) return;
  if (text->rfind("auto", 0) == 0) {
    options.autoscale = true;
    if (text->size() > 4) {
      const std::string max_text =
          (*text)[4] == ':' ? text->substr(5) : std::string();
      std::size_t max = 0;
      if (!max_text.empty() &&
          max_text.find_first_not_of("0123456789") == std::string::npos) {
        max = std::stoul(max_text);
      }
      DLSCHED_EXPECT(max >= 1 && max <= 256,
                     "--workers auto:MAX wants 1 <= MAX <= 256 (got '" +
                         *text + "')");
      options.autoscale_max = max;
    }
    return;
  }
  const std::int64_t workers = args.get_int("workers", 1);
  DLSCHED_EXPECT(workers >= 1,
                 "--workers wants a positive process count or auto[:MAX]");
  options.workers = static_cast<std::size_t>(workers);
}

int list_specs() {
  Table table({"spec", "figure", "kind", "title"});
  for (const ExperimentSpec& spec : builtin_specs()) {
    table.begin_row()
        .cell(spec.name)
        .cell(spec.figure)
        .cell(kind_name(spec.kind))
        .cell(spec.title);
  }
  table.print_aligned(std::cout);
  std::cout << "\n" << builtin_specs().size()
            << " built-in specs; run one with --spec NAME or declare your "
               "own with --spec-file FILE.toml\n";
  return 0;
}

int list_generators() {
  Table table({"generator", "parameters", "description"});
  for (const gen::GeneratorInfo& info :
       gen::GeneratorRegistry::instance().infos()) {
    std::string params;
    for (const std::string& key : info.params) {
      if (!params.empty()) params += ",";
      params += key;
    }
    table.begin_row().cell(info.name).cell(params).cell(info.description);
  }
  table.print_aligned(std::cout);
  return 0;
}

int cache_stats(const CliArgs& args) {
  const std::string dir = args.get_or("cache-dir", ".dlsched_cache");
  const CacheInventory inventory = ResultCache::inspect(dir);
  if (!inventory.exists) {
    std::cout << "cache directory '" << dir << "' does not exist\n";
    return 0;
  }
  std::cout << "cache directory: " << dir << "\n"
            << "entries:         " << inventory.entries << "\n"
            << "total bytes:     " << inventory.total_bytes << "\n";
  if (inventory.has_last_run) {
    std::cout << "last run:        " << inventory.last_spec << " ("
              << inventory.last_run.hits << " hit(s), "
              << inventory.last_run.misses << " miss(es), "
              << inventory.last_run.stores << " store(s), "
              << inventory.last_run.evicted << " evicted)\n";
  } else {
    std::cout << "last run:        (no stats recorded yet)\n";
  }
  return 0;
}

int run_one(ExperimentSpec spec, const CliArgs& args,
            std::chrono::steady_clock::time_point run_epoch) {
  if (args.has("seed")) {
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  }
  if (args.has("repetitions")) {
    spec.repetitions =
        static_cast<std::size_t>(args.get_int("repetitions", 1));
  }
  if (const auto filter = args.get("filter")) {
    // Axis slicing (`--filter p=4,solver=affine_greedy|affine_fifo`):
    // the filtered spec shares the cache with the full sweep, so a slice
    // is both a cheap CI smoke and a warm-up for the full run.
    apply_spec_filter(spec, *filter);
  }
  RunOptions options;
  options.out_json = args.has("no-json")
                         ? std::string()
                         : args.get_or("out", "BENCH_" + spec.name + ".json");
  options.out_csv = args.has("no-csv") ? std::string()
                                       : args.get_or("csv", spec.name + ".csv");
  options.cache_dir = args.has("no-cache")
                          ? std::string()
                          : args.get_or("cache-dir", ".dlsched_cache");
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  options.quick = args.has("quick");
  // Measured from before the spec was parsed, so the reported wall time
  // matches /usr/bin/time within noise.
  options.run_epoch = run_epoch;
  if (const auto trace = args.get("trace")) {
    DLSCHED_EXPECT(!trace->empty(), "--trace wants an output path");
    options.trace_path = *trace;
  }
  if (const auto coordinator = args.get("coordinator")) {
    options.coordinator = *coordinator;
  }
  parse_workers(args, options);
  options.cache_max_bytes =
      static_cast<std::uint64_t>(args.get_int("cache-max-bytes", 0));
  // Long enough to be a real heartbeat period, short enough that a dead
  // worker's shard is reassigned within the hour.
  options.lease_ttl_seconds =
      args.get_double("lease-ttl", options.lease_ttl_seconds);
  DLSCHED_EXPECT(
      options.lease_ttl_seconds >= 0.05 &&
          options.lease_ttl_seconds <= 3600.0,
      "--lease-ttl " + format_double(options.lease_ttl_seconds, 6) +
          " is out of range (accepted: 0.05 to 3600 seconds)");
  if (options.distributed()) {
    // SIGTERM/SIGINT drain the coordinator instead of killing the run.
    std::signal(SIGTERM, on_bench_signal);
    std::signal(SIGINT, on_bench_signal);
    options.stop_signal = &g_bench_signal;
  }
  const RunSummary summary = run_spec(spec, options);
  return summary.failures == 0 ? 0 : 1;
}

}  // namespace

const std::vector<std::string>& bench_flags() {
  static const std::vector<std::string>* flags = new std::vector<std::string>{
      "list-specs", "list-generators", "all",    "quick",
      "no-cache",   "no-json",         "no-csv", "cache-stats"};
  return *flags;
}

int bench_main(const CliArgs& args) {
  // Every option the driver reads; anything else -- a typo, or an option
  // an older build accepted -- must fail loudly, not run a different job.
  static const std::vector<std::string>* known = [] {
    auto* all = new std::vector<std::string>(bench_flags());
    all->insert(all->end(),
                {"spec", "spec-file", "out", "csv", "cache-dir",
                 "cache-max-bytes", "threads", "seed", "repetitions",
                 "filter", "trace", "workers", "coordinator", "lease-ttl",
                 "worker", "worker-id", "scratch-dir", "abandon-after"});
    return all;
  }();
  args.reject_unknown(*known);
  // Stamp the run epoch and start the tracer before any spec parsing so
  // the root span (and wall_seconds) covers parse + plan time.
  const auto run_epoch = std::chrono::steady_clock::now();
  if (args.get("trace")) obs::Tracer::instance().enable("bench");
  if (const auto endpoint = args.get("worker")) {
    return run_worker_mode(args, *endpoint);
  }
  if (args.has("list-specs")) return list_specs();
  if (args.has("list-generators")) return list_generators();
  if (args.has("cache-stats")) return cache_stats(args);
  if (args.has("all")) {
    if (args.get("out") || args.get("csv") || args.get("trace")) {
      std::cerr << "--all names artifacts per spec; drop --out/--csv/"
                   "--trace\n";
      return 2;
    }
    int status = 0;
    for (const ExperimentSpec& spec : builtin_specs()) {
      status |= run_one(spec, args, std::chrono::steady_clock::now());
      std::cout << "\n";
    }
    return status;
  }
  if (const auto path = args.get("spec-file")) {
    return run_one(load_spec_file(*path), args, run_epoch);
  }
  if (const auto name = args.get("spec")) {
    return run_one(find_builtin_spec(*name), args, run_epoch);
  }
  std::cerr << "bench needs --spec NAME, --spec-file FILE, --all, "
               "--list-specs, --list-generators or --cache-stats\n";
  return 2;
}

}  // namespace dlsched::experiments
