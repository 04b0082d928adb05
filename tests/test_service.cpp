// Tests of the dlsched_serve daemon: request lifecycle (start -> requests
// -> drain), byte-identity of daemon answers against direct `solve_batch`,
// deterministic backpressure (rejects surface with retry-after, nothing
// hangs), protocol-error handling over a live socket, and the stats
// mailbox.  All sockets live in the test temp directory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "experiments/cache.hpp"
#include "fd_reuse.hpp"
#include "obs/metrics.hpp"
#include "platform/generators.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlsched::service {
namespace {

namespace fs = std::filesystem;

/// Fresh socket path + cache dir per test (paths stay under the AF_UNIX
/// 108-byte limit).
struct TestPaths {
  std::string socket;
  std::string cache_dir;
};

TestPaths test_paths(const std::string& tag) {
  static int counter = 0;
  const std::string base = fs::temp_directory_path().string() +
                           "/dls_" + std::to_string(::getpid()) + "_" +
                           tag + std::to_string(counter++);
  return {base + ".sock", base + ".cache"};
}

std::vector<SolveRequest> distinct_requests(std::size_t count,
                                            std::size_t p) {
  Rng rng(71);
  std::vector<SolveRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    SolveRequest request;
    request.platform = gen::random_star(p, rng, 0.5);
    request.seed = 100 + i;
    requests.push_back(std::move(request));
  }
  return requests;
}

// The daemon's latency histogram IS the obs layer's log2 histogram: one
// bucketing, one JSON rendering, shared by the stats report and the
// bench phase table.
TEST(ServeStats, LatencyHistogramIsTheObsHistogram) {
  static_assert(std::is_same_v<LatencyHistogram, obs::Log2Histogram>,
                "service::LatencyHistogram must alias obs::Log2Histogram");
  LatencyHistogram service_side;
  obs::Log2Histogram obs_side;
  for (const double s : {0.0, 3e-6, 250e-6, 1e-3, 0.9}) {
    service_side.add(s);
    obs_side.add(s);
  }
  EXPECT_EQ(service_side.render_buckets_json(),
            obs_side.render_buckets_json());
  EXPECT_EQ(service_side.quantile_upper(0.5), obs_side.quantile_upper(0.5));
  EXPECT_EQ(service_side.quantile_upper(0.99),
            obs_side.quantile_upper(0.99));
}

TEST(ServeDaemon, LifecycleRequestsDrainAndStats) {
  const TestPaths paths = test_paths("life");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.cache_dir = paths.cache_dir;
  config.batch_wait_ms = 0.0;
  Server server(config);

  const std::vector<SolveRequest> requests = distinct_requests(3, 5);
  // The stream repeats request 0 and 1: the repeats must answer from the
  // cache with the exact bytes of the first answer.
  const std::size_t stream[] = {0, 1, 2, 0, 1, 0};
  std::vector<std::string> bodies;
  {
    ServeClient client(paths.socket);
    for (const std::size_t r : stream) {
      const SolveReply reply = client.solve("fifo_optimal", requests[r]);
      ASSERT_EQ(reply.kind, SolveReply::Kind::Result);
      EXPECT_TRUE(reply.record.solved);
      EXPECT_TRUE(reply.record.validated);
      bodies.push_back(reply.raw_body);
    }
  }
  EXPECT_EQ(bodies[3], bodies[0]);  // byte-identical repeat answers
  EXPECT_EQ(bodies[4], bodies[1]);
  EXPECT_EQ(bodies[5], bodies[0]);

  // Stats mailbox over the wire.
  {
    ServeClient client(paths.socket);
    const std::string stats = client.stats_json();
    EXPECT_EQ(json_number_field(stats, "admitted"), 6.0);
    EXPECT_EQ(json_number_field(stats, "solved"), 3.0);
    EXPECT_EQ(json_number_field(stats, "cache_hits"), 3.0);
    EXPECT_EQ(json_number_field(stats, "rejected"), 0.0);
    EXPECT_EQ(json_number_field(stats, "hit_ratio"), 0.5);
    EXPECT_GE(json_number_field(stats, "uptime_seconds"), 0.0);
  }

  // Drain: new solves are refused with a do-not-retry marker; the stats
  // mailbox still answers.
  server.begin_drain();
  {
    ServeClient client(paths.socket);
    const SolveReply reply = client.solve("fifo_optimal", requests[2]);
    ASSERT_EQ(reply.kind, SolveReply::Kind::Rejected);
    EXPECT_LT(reply.reject.retry_after_ms, 0.0);
    EXPECT_NE(reply.reject.reason.find("drain"), std::string::npos);
    const std::string stats = client.stats_json();
    EXPECT_TRUE(stats.find("\"draining\": true") != std::string::npos ||
                stats.find("\"draining\":true") != std::string::npos)
        << stats;
  }
  server.stop();
  EXPECT_FALSE(fs::exists(paths.socket));  // socket unlinked on stop
  fs::remove_all(paths.cache_dir);
}

TEST(ServeDaemon, ColdAnswersMatchDirectSolveBatchModuloTiming) {
  const TestPaths paths = test_paths("cold");
  ServerConfig config;
  config.socket_path = paths.socket;  // no cache: every answer is a solve
  config.batch_wait_ms = 0.0;
  Server server(config);

  const std::vector<SolveRequest> requests = distinct_requests(3, 5);
  std::vector<BatchJob> jobs;
  for (const SolveRequest& request : requests) {
    jobs.push_back({"fifo_optimal", request});
  }
  const std::vector<BatchOutcome> direct = solve_batch(jobs, 1);

  ServeClient client(paths.socket);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SolveReply reply = client.solve("fifo_optimal", requests[i]);
    ASSERT_EQ(reply.kind, SolveReply::Kind::Result);
    // Wall-clock fields are run-dependent; everything else -- the
    // schedule, the counters, the flags -- must be byte-identical to the
    // direct library call.
    SolveRecord from_daemon = reply.record;
    SolveRecord from_direct = record_from_outcome(direct[i]);
    from_daemon.wall_seconds = from_direct.wall_seconds = 0.0;
    from_daemon.validate_seconds = from_direct.validate_seconds = 0.0;
    EXPECT_EQ(encode_result_body(from_daemon),
              encode_result_body(from_direct))
        << "request " << i;
  }
  server.stop();
}

TEST(ServeDaemon, WarmAnswersAreByteIdenticalToDirectSolveBatch) {
  const TestPaths paths = test_paths("warm");
  const std::vector<SolveRequest> requests = distinct_requests(3, 5);

  // Seed the cache exactly the way the experiment engine does: a direct
  // solve_batch whose hook stores every outcome.
  std::vector<std::string> expected_bodies(requests.size());
  {
    experiments::ResultCache cache(paths.cache_dir);
    std::vector<BatchJob> jobs;
    for (const SolveRequest& request : requests) {
      jobs.push_back({"fifo_optimal", request});
    }
    const auto outcomes = solve_batch(
        jobs, 1, [&](const BatchProgress& progress, const BatchOutcome& o) {
          cache.store(
              job_hash_hex(jobs[progress.job_index].solver,
                           jobs[progress.job_index].request),
              job_canonical_key(jobs[progress.job_index].solver,
                                jobs[progress.job_index].request),
              experiments::cached_from_outcome(o));
          return true;
        });
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      expected_bodies[i] =
          encode_result_body(record_from_outcome(outcomes[i]));
    }
  }

  // A daemon over that cache must answer with the direct run's bytes --
  // timing fields included (they round-trip bit-exactly through the
  // cache entry).
  ServerConfig config;
  config.socket_path = paths.socket;
  config.cache_dir = paths.cache_dir;
  Server server(config);
  ServeClient client(paths.socket);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SolveReply reply = client.solve("fifo_optimal", requests[i]);
    ASSERT_EQ(reply.kind, SolveReply::Kind::Result);
    EXPECT_EQ(reply.raw_body, expected_bodies[i]) << "request " << i;
  }
  EXPECT_EQ(server.stats().cache_hits, requests.size());
  EXPECT_EQ(server.stats().solved, 0u);
  server.stop();
  fs::remove_all(paths.cache_dir);
}

TEST(ServeDaemon, ConcurrentIdenticalRequestsDedupeToIdenticalBytes) {
  const TestPaths paths = test_paths("dedupe");
  ServerConfig config;
  config.socket_path = paths.socket;
  // A generous gather window so the concurrent clients land in one
  // micro-batch and hit the within-batch dedupe path; the cache is on as
  // a backstop (a straggler that misses the batch still gets the
  // primary's bytes, because the stored record round-trips bit-exactly).
  config.batch_wait_ms = 250.0;
  config.cache_dir = paths.cache_dir;
  Server server(config);

  const SolveRequest request = distinct_requests(1, 5).front();
  constexpr std::size_t kClients = 4;
  // Connect everyone up front so the solve frames land within the same
  // gather window.
  std::vector<std::unique_ptr<ServeClient>> conns;
  for (std::size_t c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<ServeClient>(paths.socket));
  }
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const SolveReply reply = conns[c]->solve("fifo_optimal", request);
      if (reply.kind == SolveReply::Kind::Result) {
        bodies[c] = reply.raw_body;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 1; c < kClients; ++c) {
    EXPECT_FALSE(bodies[c].empty());
    EXPECT_EQ(bodies[c], bodies[0]);
  }
  const StatsSnapshot stats = server.stats();
  EXPECT_EQ(stats.admitted, kClients);
  // However the batches landed, every request completed by exactly one of
  // the three answer paths.
  EXPECT_EQ(stats.solved + stats.deduped + stats.cache_hits, kClients);
  server.stop();
  fs::remove_all(paths.cache_dir);
}

TEST(ServeDaemon, BackpressureRejectsWithRetryAfterInsteadOfHanging) {
  const TestPaths paths = test_paths("press");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.queue_capacity = 1;
  config.batch_max = 1;
  config.batch_wait_ms = 0.0;
  config.solve_threads = 1;
  config.retry_after_ms = 7.5;
  Server server(config);

  // Job A occupies the batcher for a deterministic-enough window: an
  // exhaustive search under a wall-clock budget.
  SolveRequest slow = distinct_requests(1, 9).front();
  slow.max_workers_brute = 9;
  slow.time_budget_seconds = 2.0;

  std::thread a([&] {
    ServeClient client(paths.socket);
    const SolveReply reply = client.solve("brute_force", slow);
    EXPECT_EQ(reply.kind, SolveReply::Kind::Result);
  });
  // Wait until A is inside solve_batch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().in_flight < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "A never ran";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Job B fills the (capacity-1) queue while A is in flight.
  SolveRequest queued = distinct_requests(2, 5).back();
  std::thread b([&] {
    ServeClient client(paths.socket);
    const SolveReply reply = client.solve("fifo_optimal", queued);
    EXPECT_EQ(reply.kind, SolveReply::Kind::Result);
  });
  while (server.stats().queued < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "B never queued";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Job C must be rejected immediately -- with the advertised retry-after
  // -- because the queue is full.  No hang, no block.
  {
    ServeClient client(paths.socket);
    const SolveReply reply =
        client.solve("fifo_optimal", distinct_requests(3, 5).back());
    ASSERT_EQ(reply.kind, SolveReply::Kind::Rejected);
    EXPECT_EQ(reply.reject.retry_after_ms, 7.5);
    EXPECT_NE(reply.reject.reason.find("full"), std::string::npos);
  }
  a.join();
  b.join();
  EXPECT_EQ(server.stats().rejected, 1u);
  server.stop();
}

TEST(ServeDaemon, GarbageBytesGetProtocolErrorsNeverCrashes) {
  const TestPaths paths = test_paths("garb");
  ServerConfig config;
  config.socket_path = paths.socket;
  Server server(config);

  {  // Wrong magic: ProtocolError, then the daemon closes the connection.
    ServeClient client(paths.socket);
    const Frame reply =
        client.raw_roundtrip("definitely not a dlsched frame....");
    EXPECT_EQ(reply.type, FrameType::ProtocolError);
  }
  {  // Future version.
    ServeClient client(paths.socket);
    std::string frame = encode_frame(FrameType::StatsQuery, "");
    frame[0] = static_cast<char>(kWireVersion + 9);
    const Frame reply = client.raw_roundtrip(frame);
    EXPECT_EQ(reply.type, FrameType::ProtocolError);
    EXPECT_NE(reply.payload.find("version"), std::string::npos);
  }
  {  // A well-framed but malformed request body: the reply is a
     // ProtocolError and the *connection keeps working*.
    ServeClient client(paths.socket);
    const Frame bad = client.raw_roundtrip(
        encode_frame(FrameType::SolveRequest, "not a request body"));
    EXPECT_EQ(bad.type, FrameType::ProtocolError);
    const SolveReply good =
        client.solve("fifo_optimal", distinct_requests(1, 4).front());
    EXPECT_EQ(good.kind, SolveReply::Kind::Result);
  }
  EXPECT_GE(server.stats().protocol_errors, 3u);
  server.stop();
}

TEST(ServeDaemon, StopLeavesReusedConnectionFdNumbersAlone) {
  const TestPaths paths = test_paths("fdreuse");
  ServerConfig config;
  config.socket_path = paths.socket;
  Server server(config);
  fd_probe::expect_stop_spares_reused_fd_numbers(paths.socket,
                                                 [&] { server.stop(); });
}

TEST(ServeReplay, StreamRoundTripsAndReplayReportsHitRatio) {
  RecordParams record;
  record.requests = 12;
  record.distinct = 4;
  record.p = 5;
  const std::string stream = record_stream(record);
  const std::vector<std::string> bodies = load_stream(stream);
  ASSERT_EQ(bodies.size(), record.requests);
  EXPECT_EQ(bodies[0], bodies[4]);  // request i uses platform i % distinct
  EXPECT_NE(bodies[0], bodies[1]);

  const TestPaths paths = test_paths("replay");
  ServerConfig config;
  config.socket_path = paths.socket;
  config.cache_dir = paths.cache_dir;
  Server server(config);

  ReplayParams params;
  params.socket_path = paths.socket;
  params.concurrency = 3;
  const ReplayReport cold = run_replay(params, bodies);
  EXPECT_EQ(cold.completed, record.requests);
  EXPECT_EQ(cold.failed, 0u);
  const ReplayReport warm = run_replay(params, bodies);
  EXPECT_EQ(warm.completed, record.requests);
  // Warm: everything answers from the cache, byte-identical to cold.
  for (std::size_t i = 0; i < record.requests; ++i) {
    EXPECT_EQ(warm.responses[i], cold.responses[i]) << "request " << i;
  }
  const std::string bench = render_bench_json(warm, params.concurrency);
  EXPECT_EQ(json_number_field(bench, "hit_ratio"), 1.0);
  EXPECT_GT(json_number_field(bench, "requests_per_second"), 0.0);
  EXPECT_NE(bench.find("\"latency_p99_s\":"), std::string::npos);
  server.stop();
  fs::remove_all(paths.cache_dir);
}

}  // namespace
}  // namespace dlsched::service
