// dlsched_cli -- drive the solver portfolio from a platform description.
//
// One binary, one subcommand table (see `kCommands` / --help): local
// commands solve against the in-process registry, `serve` runs the
// scheduling daemon (src/service/), and `request` speaks the wire
// protocol to a running daemon.  Every scheduling strategy is selected by
// registry name (see --list-solvers); the CLI itself knows nothing about
// individual algorithms.  When no platform file is given, a built-in
// 4-worker demo bus (z = 1/2, heterogeneous compute) is used -- every
// registered solver is applicable to it.
//
// Platform file format (see src/platform/platform_io.hpp):
//   z 0.5
//   node-a 0.08 0.30
//   node-b 0.12 0.20 0.06
#include <csignal>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "core/solver.hpp"
#include "core/throughput.hpp"
#include "experiments/bench_driver.hpp"
#include "experiments/emitter.hpp"
#include "platform/platform_io.hpp"
#include "schedule/gantt.hpp"
#include "schedule/rounding.hpp"
#include "schedule/timeline.hpp"
#include "schedule/validator.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/des_executor.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace dlsched;

// ------------------------------------------------------ subcommand table --

struct Command {
  const char* name;
  const char* arguments;
  const char* summary;
};

constexpr Command kCommands[] = {
    {"describe", "[platform-file]", "print the platform and its serialized form"},
    {"solve", "[platform-file] [--solver NAME] [--load M]",
     "run one solver and print the schedule"},
    {"compare", "[platform-file] [--solvers a,b] [--load M] [--json]",
     "run the portfolio side by side"},
    {"gantt", "[platform-file] [--solver NAME] [--svg FILE] [--width N]",
     "render the schedule as a gantt chart"},
    {"simulate", "[platform-file] [--solver NAME] [--load M] [--noise SEED]",
     "execute the schedule on the discrete-event simulator"},
    {"bench", "--spec NAME | --spec-file FILE | --list-specs",
     "experiment driver (embedded dlsched_bench)"},
    {"serve", "--socket PATH [--cache-dir DIR] [--queue-capacity N] [...]",
     "run the scheduling daemon on a local socket"},
    {"request", "[platform-file] --socket PATH [--solver NAME] [--json]",
     "send one solve to a running daemon and print the result"},
};

int usage(std::ostream& out, int code) {
  out << "usage: dlsched_cli <command> [arguments] [options]\n"
         "       dlsched_cli --list-solvers | --help\n\ncommands:\n";
  Table table({"command", "arguments", "summary"});
  for (const Command& command : kCommands) {
    table.begin_row()
        .cell(command.name)
        .cell(command.arguments)
        .cell(command.summary);
  }
  table.print_aligned(out);
  out << "\ncommon options:\n"
         "  --solver NAME   scheduling strategy (default fifo_optimal)\n"
         "  --solvers a,b   compare: comma-separated subset (default: all)\n"
         "  --load M        schedule M load units (default: throughput form)\n"
         "  --exact         rational LP arithmetic (default: fast/double)\n"
         "  --seed N        seed for randomized solvers\n"
         "  --budget SEC    time budget for search solvers\n"
         "  --threads N     thread-pool size (0 = hardware)\n"
         "  --json          compare/request: machine-readable output\n"
         "serve options:\n"
         "  --socket PATH         AF_UNIX socket path (required)\n"
         "  --cache-dir DIR       ResultCache directory (repeat queries\n"
         "                        answer from disk)\n"
         "  --queue-capacity N    bounded admission queue (default 64)\n"
         "  --batch-max N         micro-batch size cap (default 16)\n"
         "  --retry-after-ms X    advertised backpressure delay "
         "(default 25)\n"
         "gantt/simulate options:\n"
         "  --svg FILE / --width N / --noise SEED / --chrome-trace FILE\n"
         "bench options: --spec/--spec-file/--list-specs plus\n"
         "  --out/--csv/--cache-dir/--no-cache/--quick\n"
         "  distributed: --workers N|auto[:MAX] (forked local fleet)\n"
         "           [--coordinator HOST:PORT] [--lease-ttl S]\n"
         "           | --worker tcp://HOST:PORT\n";
  return code;
}

/// The built-in demo platform: a bus with a uniform return ratio z = 1/2
/// and heterogeneous compute, so every registered solver (including
/// Theorem 2 and the Lemma 2 exchanges) is applicable.
StarPlatform demo_platform() {
  return StarPlatform::bus(0.25, 0.125, {0.5, 1.0, 2.0, 4.0});
}

StarPlatform resolve_platform(const CliArgs& args) {
  if (args.positional().size() < 2 || args.positional()[1] == "demo") {
    return demo_platform();
  }
  return load_platform(args.positional()[1]);
}

SolveRequest request_from(const StarPlatform& platform, const CliArgs& args) {
  SolveRequest request;
  request.platform = platform;
  request.precision =
      args.has("exact") ? Precision::Exact : Precision::Fast;
  request.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  request.time_budget_seconds = args.get_double("budget", 0.0);
  return request;
}

int list_solvers() {
  Table table({"solver", "paper", "description"});
  for (const SolverInfo& info : SolverRegistry::instance().infos()) {
    table.begin_row().cell(info.name).cell(info.paper_ref).cell(
        info.description);
  }
  table.print_aligned(std::cout);
  std::cout << "\n" << SolverRegistry::instance().names().size()
            << " solvers registered\n";
  return 0;
}

void print_solution(const StarPlatform& platform, const SolveResult& result,
                    double load) {
  std::cout << "scenario: " << result.solution.scenario.describe() << "\n";
  std::cout << "throughput (T = 1): " << result.throughput() << "\n";
  if (load > 0.0) {
    std::cout << "time for " << load
              << " load units: " << makespan_for_load(result.throughput(), load)
              << "\n";
  }
  Table table({"worker", "alpha", "share_%"});
  table.set_precision(5);
  const double total = result.throughput();
  for (std::size_t w = 0; w < platform.size(); ++w) {
    if (!result.solution.alpha[w].is_positive()) continue;
    table.begin_row()
        .cell(platform.worker(w).name)
        .cell(result.solution.alpha[w].to_double())
        .cell(100.0 * result.solution.alpha[w].to_double() / total);
  }
  table.print_aligned(std::cout);
  const std::size_t used = result.solution.enrolled().size();
  if (used < platform.size()) {
    std::cout << "(resource selection dropped " << platform.size() - used
              << " worker(s))\n";
  }
  if (result.provably_optimal) std::cout << "provably optimal: yes\n";
  if (result.mirrored) std::cout << "solved through the z > 1 mirror\n";
  if (result.alt_throughput) {
    std::cout << "secondary throughput: " << result.alt_throughput->to_double()
              << "\n";
  }
  if (result.scenarios_tried > 0) {
    std::cout << "scenarios tried: " << result.scenarios_tried << "\n";
  }
  if (result.lp_evaluations > 0) {
    std::cout << "LP evaluations: " << result.lp_evaluations << "\n";
  }
  if (!result.notes.empty()) std::cout << "note: " << result.notes << "\n";
  std::cout << "wall time: " << 1e3 * result.wall_seconds << " ms\n";
}

int cmd_describe(const StarPlatform& platform) {
  std::cout << platform.describe();
  std::cout << serialize_platform(platform);
  return 0;
}

int cmd_solve(const StarPlatform& platform, const CliArgs& args) {
  const std::string name = args.get_or("solver", "fifo_optimal");
  const SolveRequest request = request_from(platform, args);
  const auto solver = SolverRegistry::instance().create(name);
  std::string why;
  if (!solver->applicable(request, &why)) {
    std::cerr << "solver '" << name << "' is not applicable here: " << why
              << "\n";
    return 1;
  }
  const SolveResult result = SolverRegistry::instance().run(name, request);
  std::cout << name << " -- " << solver->description() << " ["
            << solver->paper_ref() << "]\n";
  print_solution(platform, result, args.get_double("load", 0.0));
  const ValidationReport report =
      validate(result.schedule_platform, result.schedule);
  if (!report.ok) {
    std::cerr << "SCHEDULE FAILED VALIDATION: " << report.violations.front()
              << "\n";
    return 1;
  }
  std::cout << "schedule validated: ok\n";
  return 0;
}

/// One `compare --json` / `request --json` row: solver + solved, then the
/// canonical wire field list (service/wire.hpp), then command extras.
experiments::JsonObject result_row(const service::SolveRecord& record) {
  experiments::JsonObject row;
  row.add("solver", record.solver).add("solved", record.solved);
  if (record.solved) {
    service::append_result_fields(row, record);
  } else {
    row.add("error", record.error);
  }
  return row;
}

int cmd_compare(const StarPlatform& platform, const CliArgs& args) {
  const double load = args.get_double("load", 1000.0);
  const SolveRequest request = request_from(platform, args);
  std::vector<std::string> names;
  if (const auto chosen = args.get("solvers")) {
    names = split(*chosen, ',');
  } else {
    names = SolverRegistry::instance().names();
  }
  const auto outcomes = solve_batch_across_solvers(
      request, names, args.get_count("threads", 0));

  if (args.has("json")) {
    // Machine-readable rows (`compare --json --seed N` is reproducible
    // bit for bit).  The result fields are the canonical wire list; only
    // `time_for_load` is compare-specific.
    std::cout << "[";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      experiments::JsonObject row =
          result_row(service::record_from_outcome(outcomes[i]));
      if (outcomes[i].solved) {
        row.add("time_for_load",
                makespan_for_load(outcomes[i].result.throughput(), load));
      }
      std::cout << (i > 0 ? ",\n " : "\n ") << row.render();
    }
    std::cout << "\n]\n";
    return 0;
  }

  Table table({"solver", "throughput", "time_for_load", "workers", "valid",
               "wall_ms"});
  table.set_precision(5);
  for (const BatchOutcome& outcome : outcomes) {
    table.begin_row().cell(outcome.solver);
    if (!outcome.solved) {
      table.cell("error").cell(outcome.error).cell("-").cell("-").cell("-");
      continue;
    }
    const double rho = outcome.result.throughput();
    table.cell(rho)
        .cell(makespan_for_load(rho, load))
        .cell(outcome.result.solution.enrolled().size())
        .cell(outcome.ok ? "ok" : "FAIL")
        .cell(1e3 * outcome.result.wall_seconds);
  }
  table.print_aligned(std::cout);
  const std::size_t skipped = names.size() - outcomes.size();
  if (skipped > 0) {
    std::cout << "(" << skipped
              << " solver(s) not applicable to this platform)\n";
  }
  return 0;
}

int cmd_gantt(const StarPlatform& platform, const CliArgs& args) {
  const SolveResult result = SolverRegistry::instance().run(
      args.get_or("solver", "fifo_optimal"), request_from(platform, args));
  const Timeline timeline =
      build_timeline(result.schedule_platform, result.schedule);
  GanttOptions options;
  options.width = args.get_count("width", 100);
  std::cout << render_ascii_gantt(result.schedule_platform, timeline,
                                  options);
  if (const auto svg_path = args.get("svg")) {
    std::ofstream svg(*svg_path);
    if (!svg.good()) {
      std::cerr << "cannot write " << *svg_path << "\n";
      return 1;
    }
    GanttOptions svg_options;
    svg_options.svg_pixels_per_unit = 700.0 / timeline.makespan;
    svg << render_svg_gantt(result.schedule_platform, timeline, svg_options);
    std::cout << "SVG written to " << *svg_path << "\n";
  }
  return 0;
}

int cmd_simulate(const StarPlatform& platform, const CliArgs& args) {
  const std::uint64_t load = args.get_count("load", 1000);
  const SolveResult result = SolverRegistry::instance().run(
      args.get_or("solver", "fifo_optimal"), request_from(platform, args));
  const double rho = result.throughput();

  std::vector<double> ordered;
  for (std::size_t w : result.solution.scenario.send_order) {
    ordered.push_back(result.solution.alpha[w].to_double() *
                      static_cast<double>(load) / rho);
  }
  const auto integral = round_loads(ordered, load);
  std::vector<double> loads(platform.size(), 0.0);
  for (std::size_t k = 0; k < result.solution.scenario.send_order.size();
       ++k) {
    loads[result.solution.scenario.send_order[k]] =
        static_cast<double>(integral[k]);
  }
  sim::NoiseModel noise = sim::NoiseModel::none();
  if (args.has("noise")) {
    noise = sim::NoiseModel::cluster_like(
        static_cast<std::uint64_t>(args.get_int("noise", 1)));
  }
  const auto des =
      sim::execute(platform, result.solution.scenario, loads, noise);
  std::cout << "LP-predicted time: "
            << makespan_for_load(rho, static_cast<double>(load)) << "\n";
  std::cout << "simulated time:    " << des.makespan << "\n";
  std::cout << "master busy:       "
            << 100.0 * des.trace.master_utilization() << " %\n";
  if (const auto trace_path = args.get("chrome-trace")) {
    std::ofstream out(*trace_path);
    if (!out.good()) {
      std::cerr << "cannot write " << *trace_path << "\n";
      return 1;
    }
    out << des.trace.to_chrome_json(platform);
    std::cout << "chrome trace written to " << *trace_path
              << " (open in about://tracing or ui.perfetto.dev)\n";
  }
  return 0;
}

// ---------------------------------------------------------- service side --

std::atomic<int> g_signal{0};

extern "C" void on_signal(int sig) { g_signal.store(sig); }

int cmd_serve(const CliArgs& args) {
  // A typo must fail loudly, not start a daemon with a default.
  args.reject_unknown({"socket", "threads", "queue-capacity", "batch-max",
                       "cache-dir", "retry-after-ms"});
  const auto socket = args.get("socket");
  if (!socket) {
    std::cerr << "serve: --socket PATH is required\n";
    return 2;
  }
  service::ServerConfig config;
  config.socket_path = *socket;
  config.solve_threads = args.get_count("threads", 0);
  config.queue_capacity = args.get_count("queue-capacity", 64);
  config.batch_max = args.get_count("batch-max", 16);
  config.cache_dir = args.get_or("cache-dir", "");
  config.retry_after_ms = args.get_double("retry-after-ms", 25.0);

  service::Server server(config);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::cout << "dlsched_serve: listening on " << config.socket_path
            << (config.cache_dir.empty()
                    ? std::string(" (no cache)")
                    : " (cache: " + config.cache_dir + ")")
            << "\n"
            << "dlsched_serve: ready\n"
            << std::flush;
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "dlsched_serve: signal " << g_signal.load()
            << ", draining\n";
  server.stop();
  const service::StatsSnapshot stats = server.stats();
  std::cout << "dlsched_serve: drained -- admitted " << stats.admitted
            << ", rejected " << stats.rejected << ", cache hits "
            << stats.cache_hits << ", solved " << stats.solved
            << ", deduped " << stats.deduped << "\n";
  return 0;
}

int cmd_request(const StarPlatform& platform, const CliArgs& args) {
  const auto socket = args.get("socket");
  if (!socket) {
    std::cerr << "request: --socket PATH is required\n";
    return 2;
  }
  const std::string name = args.get_or("solver", "fifo_optimal");
  service::ServeClient client(*socket);
  const service::SolveReply reply =
      client.solve(name, request_from(platform, args));
  if (reply.kind == service::SolveReply::Kind::Rejected) {
    std::cerr << "rejected: " << reply.reject.reason
              << (reply.reject.retry_after_ms >= 0.0
                      ? " (retry after " +
                            std::to_string(reply.reject.retry_after_ms) +
                            " ms)"
                      : "")
              << "\n";
    return 3;
  }
  const service::SolveRecord& record = reply.record;
  if (args.has("json")) {
    std::cout << result_row(record).render() << "\n";
    return record.solved && record.validated ? 0 : 1;
  }
  if (!record.solved) {
    std::cerr << "solver error: " << record.error << "\n";
    return 1;
  }
  std::cout << record.solver << " via daemon at " << *socket << "\n"
            << "throughput (T = 1): " << record.throughput << "\n"
            << "workers used: " << record.workers_used << "\n"
            << "validated: " << (record.validated ? "ok" : "FAIL") << "\n"
            << "wall time: " << 1e3 * record.wall_seconds << " ms\n";
  return record.validated ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // The bench subcommand shares the dlsched_bench driver (and its flag
  // set) so the two entry points cannot drift.
  std::vector<std::string> flags{"list-solvers", "exact", "json", "help"};
  flags.insert(flags.end(), experiments::bench_flags().begin(),
               experiments::bench_flags().end());
  const CliArgs args = CliArgs::parse(argc, argv, flags);
  try {
    if (args.has("help")) return usage(std::cout, 0);
    if (args.has("list-solvers")) return list_solvers();
    if (args.positional().empty()) return usage(std::cerr, 2);
    const std::string& command = args.positional()[0];
    if (command == "help") return usage(std::cout, 0);
    if (command == "bench") return experiments::bench_main(args);
    if (command == "serve") return cmd_serve(args);
    const StarPlatform platform = resolve_platform(args);
    if (command == "describe") return cmd_describe(platform);
    if (command == "solve") return cmd_solve(platform, args);
    if (command == "compare") return cmd_compare(platform, args);
    if (command == "gantt") return cmd_gantt(platform, args);
    if (command == "simulate") return cmd_simulate(platform, args);
    if (command == "request") return cmd_request(platform, args);
    std::cerr << "unknown command '" << command << "'\n\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage(std::cerr, 2);
}
