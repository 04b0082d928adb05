// Replay load client for `dlsched_serve` (service/replay.hpp).
//
//   dlsched_replay record --out stream.bin [--requests N] [--distinct D]
//                         [--p P] [--seed S] [--solver NAME]
//   dlsched_replay run --socket PATH --stream stream.bin
//                      [--concurrency K] [--json BENCH_serve.json]
//                      [--dump responses.bin]
//   dlsched_replay stats --socket PATH-or-tcp://HOST:PORT [--watch N]
//
// `record` synthesizes a deterministic request stream; `run` fires it at
// a running daemon and writes the BENCH_serve.json service benchmark.
// `--dump` writes every response body in request order -- two dumps of
// the same stream (e.g. cold vs warm cache) must compare byte-identical.
// `stats` prints the StatsReport of a daemon or a cluster coordinator
// (which extends the report with its claim-board gauges) plus its uptime
// from the metrics registry; `--watch N` keeps the connection open and
// prints counter deltas every N seconds until the server goes away.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "service/client.hpp"
#include "service/replay.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace dlsched;

int usage(std::ostream& out, int code) {
  out << "usage:\n"
         "  dlsched_replay record --out FILE [--requests N] [--distinct D]"
         " [--p P] [--seed S] [--solver NAME]\n"
         "  dlsched_replay run --socket PATH --stream FILE"
         " [--concurrency K] [--json FILE] [--dump FILE]\n"
         "  dlsched_replay stats --socket PATH-or-tcp://HOST:PORT [--watch N]\n";
  return code;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DLSCHED_EXPECT(in.good(), "cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  DLSCHED_EXPECT(out.good(), "cannot write '" + path + "'");
  out << bytes;
}

int cmd_record(const CliArgs& args) {
  const auto out_path = args.get("out");
  DLSCHED_EXPECT(out_path.has_value(), "record: --out FILE is required");
  service::RecordParams params;
  params.requests = args.get_count("requests", params.requests);
  params.distinct = args.get_count("distinct", params.distinct);
  params.p = args.get_count("p", params.p);
  params.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(params.seed)));
  params.solver = args.get_or("solver", params.solver);
  spill(*out_path, service::record_stream(params));
  std::cout << "recorded " << params.requests << " requests ("
            << params.distinct << " distinct, p=" << params.p << ", solver="
            << params.solver << ") to " << *out_path << '\n';
  return 0;
}

int cmd_run(const CliArgs& args) {
  const auto socket = args.get("socket");
  const auto stream = args.get("stream");
  DLSCHED_EXPECT(socket.has_value() && stream.has_value(),
                 "run: --socket PATH and --stream FILE are required");
  const std::vector<std::string> bodies =
      service::load_stream(slurp(*stream));
  service::ReplayParams params;
  params.socket_path = *socket;
  params.concurrency = args.get_count("concurrency", params.concurrency);
  const service::ReplayReport report =
      service::run_replay(params, bodies);
  const std::string bench =
      service::render_bench_json(report, params.concurrency);
  if (const auto json_path = args.get("json")) {
    spill(*json_path, bench);
  }
  if (const auto dump_path = args.get("dump")) {
    std::string dump;
    for (const std::string& body : report.responses) {
      dump += std::to_string(body.size());
      dump += '\n';
      dump += body;
    }
    spill(*dump_path, dump);
  }
  std::cout << bench;
  return report.failed == 0 ? 0 : 1;
}

/// Pulls one numeric field out of the flat stats JSON; "-" when absent.
/// The report is a single flat object rendered by our own emitter, so a
/// key scan is exact here -- no general JSON parsing needed.
std::string json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "-";
  const std::size_t start = at + needle.size();
  const std::size_t end = json.find_first_of(",}", start);
  return json.substr(start, end - start);
}

/// `json_field` as a number (0 when absent): delta arithmetic for --watch.
double num_field(const std::string& json, const std::string& key) {
  const std::string text = json_field(json, key);
  return text == "-" ? 0.0 : std::strtod(text.c_str(), nullptr);
}

void print_stats_report(const std::string& json) {
  std::cout << json << '\n';
  std::cout << "uptime: " << json_field(json, "uptime_seconds") << " s\n";
  if (json.find("\"shards_total\"") != std::string::npos) {
    std::cout << "coordinator board: " << json_field(json, "shards_done")
              << "/" << json_field(json, "shards_total")
              << " shard(s) done, backlog "
              << json_field(json, "shard_backlog") << ", "
              << json_field(json, "leases_outstanding")
              << " lease(s) outstanding, "
              << json_field(json, "lease_reassignments")
              << " reassignment(s), "
              << json_field(json, "fragment_bytes") << " fragment byte(s), "
              << json_field(json, "fragments_discarded") << " discarded, "
              << json_field(json, "workers_spawned") << " spawned / "
              << json_field(json, "workers_retired") << " retired\n";
  }
}

int cmd_stats(const CliArgs& args) {
  const auto socket = args.get("socket");
  DLSCHED_EXPECT(socket.has_value(),
                 "stats: --socket PATH-or-tcp://HOST:PORT is required");
  const std::size_t watch = args.get_count("watch", 0);
  service::ServeClient client(*socket);
  std::string json = client.stats_json();
  print_stats_report(json);
  if (watch == 0) return 0;

  // Counters whose growth is worth a delta line; gauges are shown as-is.
  static const char* kCounters[] = {"admitted",   "solved",
                                    "cache_hits", "deduped",
                                    "rejected",   "protocol_errors"};
  for (;;) {
    std::this_thread::sleep_for(std::chrono::seconds(watch));
    std::string next;
    try {
      next = client.stats_json();
    } catch (const std::exception& e) {
      std::cout << "stats: server gone (" << e.what() << ")\n";
      return 0;
    }
    std::ostringstream line;
    line << "+" << watch << "s uptime "
         << json_field(next, "uptime_seconds") << "s";
    for (const char* key : kCounters) {
      const double delta = num_field(next, key) - num_field(json, key);
      if (delta != 0.0) line << "  " << key << " +" << delta;
    }
    line << "  queued " << json_field(next, "queued") << "  in_flight "
         << json_field(next, "in_flight");
    std::cout << line.str() << '\n' << std::flush;
    json = std::move(next);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args = CliArgs::parse(argc, argv, {"help"});
    if (args.has("help")) return usage(std::cout, 0);
    if (args.positional().empty()) return usage(std::cerr, 2);
    const std::string& command = args.positional().front();
    if (command == "record") return cmd_record(args);
    if (command == "run") return cmd_run(args);
    if (command == "stats") return cmd_stats(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "dlsched_replay: " << e.what() << '\n';
    return 1;
  }
}
