#include "service/replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "experiments/emitter.hpp"
#include "platform/generators.hpp"
#include "service/client.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlsched::service {

std::string record_stream(const RecordParams& params) {
  DLSCHED_EXPECT(params.requests > 0, "record: zero requests");
  DLSCHED_EXPECT(params.distinct > 0, "record: zero distinct jobs");
  const std::size_t distinct = std::min(params.distinct, params.requests);
  std::vector<std::string> bodies;
  bodies.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    gen::GenParams gen_params;
    gen_params["p"] = static_cast<double>(params.p);
    Rng rng(params.seed + i);
    const gen::GeneratedPlatform generated =
        gen::GeneratorRegistry::instance().make_generated(
            params.generator, gen_params, rng);
    SolveRequest request;
    request.platform = generated.platform;
    request.seed = params.seed + i;
    bodies.push_back(encode_request_body(params.solver, request));
  }
  std::string stream;
  for (std::size_t i = 0; i < params.requests; ++i) {
    stream += encode_frame(FrameType::SolveRequest, bodies[i % distinct]);
  }
  return stream;
}

std::vector<std::string> load_stream(const std::string& bytes) {
  std::vector<std::string> bodies;
  std::string_view rest = bytes;
  while (!rest.empty()) {
    const FrameDecode decode = try_decode_frame(rest);
    DLSCHED_EXPECT(decode.status == DecodeStatus::Ok,
                   "stream file: malformed frame: " +
                       (decode.error.empty() ? "truncated" : decode.error));
    DLSCHED_EXPECT(decode.frame.type == FrameType::SolveRequest,
                   "stream file: non-request frame in stream");
    bodies.push_back(std::move(decode.frame.payload));
    rest.remove_prefix(decode.consumed);
  }
  DLSCHED_EXPECT(!bodies.empty(), "stream file: no requests");
  return bodies;
}

ReplayReport run_replay(const ReplayParams& params,
                        const std::vector<std::string>& bodies) {
  DLSCHED_EXPECT(params.concurrency > 0, "replay: zero concurrency");
  ReplayReport report;
  report.requests = bodies.size();
  report.responses.assign(bodies.size(), "");
  std::vector<double> latency(bodies.size(), -1.0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> rejects{0};

  {
    ServeClient stats_client(params.socket_path);
    report.stats_before = stats_client.stats_json();
  }

  const auto run_started = std::chrono::steady_clock::now();
  const std::size_t workers = std::min(params.concurrency, bodies.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      try {
        ServeClient client(params.socket_path);
        for (std::size_t i = next.fetch_add(1); i < bodies.size();
             i = next.fetch_add(1)) {
          const std::string frame =
              encode_frame(FrameType::SolveRequest, bodies[i]);
          const auto started = std::chrono::steady_clock::now();
          for (std::size_t attempt = 0; attempt <= params.max_retries;
               ++attempt) {
            Frame reply = client.raw_roundtrip(frame);
            if (reply.type == FrameType::SolveResult) {
              latency[i] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - started)
                               .count();
              report.responses[i] = std::move(reply.payload);
              break;
            }
            // Any other reply (a body the daemon could not decode) fails
            // the request; the daemon keeps the connection open after it.
            if (reply.type != FrameType::Reject) break;
            rejects.fetch_add(1);
            const RejectInfo info = decode_reject_body(reply.payload);
            if (info.retry_after_ms < 0.0) break;  // draining: do not retry
            std::this_thread::sleep_for(std::chrono::duration<double,
                                                              std::milli>(
                info.retry_after_ms));
          }
        }
      } catch (const std::exception&) {
        // The connection failed: this worker ends, and every request it
        // did not complete counts as failed.
      }
    });
  }
  for (std::thread& t : pool) t.join();
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - run_started)
                            .count();

  {
    ServeClient stats_client(params.socket_path);
    report.stats_after = stats_client.stats_json();
  }

  report.rejects = rejects.load();
  for (const double l : latency) {
    if (l >= 0.0) report.latency_seconds.push_back(l);
  }
  report.completed = report.latency_seconds.size();
  report.failed = report.requests - report.completed;
  return report;
}

namespace {

/// Exact quantile over a sorted sample (nearest-rank).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
}

}  // namespace

double json_number_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  DLSCHED_EXPECT(at != std::string::npos,
                 "stats report: missing field '" + key + "'");
  return std::stod(json.substr(at + needle.size()));
}

std::string render_bench_json(const ReplayReport& report,
                              std::size_t concurrency) {
  std::vector<double> sorted = report.latency_seconds;
  std::sort(sorted.begin(), sorted.end());
  // This run's hit ratio from the daemon's cumulative counters: the
  // warm-replay gate (>= 0.9) reads this field.
  const double answered_delta =
      json_number_field(report.stats_after, "completed") -
      json_number_field(report.stats_before, "completed");
  const double hits_delta =
      json_number_field(report.stats_after, "cache_hits") -
      json_number_field(report.stats_before, "cache_hits");
  experiments::JsonObject doc;
  doc.add("bench", "serve")
      .add("requests", report.requests)
      .add("completed", report.completed)
      .add("failed", report.failed)
      .add("rejects", report.rejects)
      .add("concurrency", concurrency)
      .add("wall_seconds", report.wall_seconds)
      .add("requests_per_second",
           report.wall_seconds > 0.0
               ? static_cast<double>(report.completed) / report.wall_seconds
               : 0.0)
      .add("latency_p50_s", quantile(sorted, 0.50))
      .add("latency_p90_s", quantile(sorted, 0.90))
      .add("latency_p99_s", quantile(sorted, 0.99))
      .add("hit_ratio",
           answered_delta > 0.0 ? hits_delta / answered_delta : 0.0);
  doc.add_raw("server_stats", report.stats_after);
  return doc.render() + "\n";
}

}  // namespace dlsched::service
