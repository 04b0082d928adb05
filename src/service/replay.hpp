// Replay load generation for `dlsched_serve`.
//
// A *stream* is a recorded sequence of solve-request frames -- exactly
// the bytes a set of clients would write -- stored in one file.
// `record_stream` synthesizes a deterministic stream from the platform
// generators (same seed, same bytes), `run_replay` fires a stream at a
// running daemon with N concurrent connections and collects per-request
// latencies plus every response body in request order, and
// `render_bench_json` turns the report into `BENCH_serve.json` for the
// gated perf trajectory.  Because responses are kept in request order,
// two runs of the same stream can be compared byte for byte (the CI
// serve-smoke job's cold-vs-warm check).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dlsched::service {

struct RecordParams {
  std::size_t requests = 64;   ///< total requests in the stream
  std::size_t distinct = 16;   ///< distinct jobs; the rest repeat cyclically
  std::size_t p = 6;           ///< workers per generated platform
  std::uint64_t seed = 1;      ///< generator seed base
  std::string solver = "fifo_optimal";
  std::string generator = "random_star";
};

/// Synthesizes a stream: `requests` solve-request frames over `distinct`
/// generated platforms (request i uses platform i % distinct).
/// Deterministic in the params.
[[nodiscard]] std::string record_stream(const RecordParams& params);

/// Parses a stream back into its request payloads (the frame bodies);
/// throws `dlsched::Error` on malformed bytes.
[[nodiscard]] std::vector<std::string> load_stream(const std::string& bytes);

struct ReplayParams {
  std::string socket_path;
  std::size_t concurrency = 4;  ///< client connections / worker threads
  std::size_t max_retries = 64; ///< per request, on backpressure rejects
};

struct ReplayReport {
  std::size_t requests = 0;
  std::size_t completed = 0;     ///< answered with a result
  std::size_t failed = 0;        ///< requests - completed
  std::size_t rejects = 0;       ///< backpressure rejects observed
  double wall_seconds = 0.0;
  std::vector<double> latency_seconds;  ///< per completed request
  /// Response result bodies in request order ("" for failed slots).
  std::vector<std::string> responses;
  std::string stats_before;  ///< daemon stats JSON before the run
  std::string stats_after;   ///< ... and after
};

/// Fires the stream at the daemon.  Rejected requests honor the advertised
/// retry-after and retry up to `max_retries`; a reject with a negative
/// retry-after (drain) or any other reply but a result (a body the daemon
/// could not decode) fails the request, and the worker carries on.  A
/// worker whose connection fails ends; its unanswered requests fail too.
[[nodiscard]] ReplayReport run_replay(const ReplayParams& params,
                                      const std::vector<std::string>& bodies);

/// Renders the report as the BENCH_serve.json document: exact p50/p90/p99
/// latency, requests/s, and the cache hit ratio of this run (computed
/// from the daemon's before/after counters).
[[nodiscard]] std::string render_bench_json(const ReplayReport& report,
                                            std::size_t concurrency);

/// Extracts a numeric field from a flat stats JSON object; throws when
/// absent.  (The daemon's report is machine-written, flat and unescaped,
/// so a tiny scanner is enough -- no JSON parser dependency.)
[[nodiscard]] double json_number_field(const std::string& json,
                                       const std::string& key);

}  // namespace dlsched::service
