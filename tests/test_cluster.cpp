// Tests of the TCP cluster board (service/coordinator.hpp +
// service/worker.hpp): spec shipping round-trips the plan fingerprint,
// a passive coordinator fed by in-process TCP workers renders artifacts
// byte-identical to a single-process run over the same cache, a worker
// that dies mid-FragmentPush loses its lease exactly once (and the torn
// frame never corrupts the board), StatsQuery exposes the board gauges,
// draining sends workers away, the lease TTL flag validates its accepted
// range, and the driver rejects options it does not know.
//
// No forks here: the coordinator runs inside `run_spec` on one thread
// and the workers are `run_tcp_worker` calls on others, so a failing
// assertion surfaces in THIS process.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/bench_driver.hpp"
#include "experiments/engine.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec.hpp"
#include "fd_reuse.hpp"
#include "service/client.hpp"
#include "service/coordinator.hpp"
#include "service/net.hpp"
#include "service/wire.hpp"
#include "service/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace dlsched::experiments {
namespace {

namespace fs = std::filesystem;

/// A scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("dlsched_cluster_" + tag + "_" +
               std::to_string(::testing::UnitTest::GetInstance()
                                  ->random_seed()) +
               "_" + std::to_string(reinterpret_cast<std::uintptr_t>(this)))) {
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }
  [[nodiscard]] std::string dir() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// 2 worker counts x 2 z values x 2 reps x 2 solvers = 8 shards, 16 jobs.
ExperimentSpec small_grid_spec() {
  ExperimentSpec spec;
  spec.name = "cluster_test";
  spec.title = "cluster test grid";
  spec.figure = "test";
  spec.kind = SpecKind::Grid;
  spec.generator = "random_star";
  spec.workers = {3, 4};
  spec.z_values = {0.25, 0.5};
  spec.repetitions = 2;
  spec.solvers = {"fifo_optimal", "lifo"};
  spec.baseline = "fifo_optimal";
  return spec;
}

/// A per-process, per-test port: `run_spec` needs the port up front (the
/// options carry "HOST:PORT"), so the ephemeral-port trick is not
/// available here.  Salting with the pid keeps parallel ctest processes
/// apart; the offset keeps tests within one process apart.  The range
/// stays below Linux's ephemeral ports (32768 and up): every outgoing
/// connection, including ones lingering in TIME_WAIT, holds one of those,
/// and binding to it fails with "address already in use".
std::uint16_t test_port(int offset) {
  const auto pid = static_cast<unsigned long>(::getpid());
  return static_cast<std::uint16_t>(21000u + (pid * 131u + offset * 1009u) %
                                                 11000u);
}

/// Workers race the coordinator's bind: retry connection-refused setup
/// errors until the board is listening.
service::TcpWorkerSummary run_worker_with_retry(
    const service::TcpWorkerOptions& options, std::ostream& log) {
  for (int attempt = 0;; ++attempt) {
    try {
      return service::run_tcp_worker(options, log);
    } catch (const Error&) {
      if (attempt >= 200) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
}

int connect_with_retry(const std::string& endpoint) {
  const service::net::Endpoint parsed = service::net::parse_endpoint(endpoint);
  for (int attempt = 0;; ++attempt) {
    try {
      return service::net::connect_endpoint(parsed);
    } catch (const Error&) {
      if (attempt >= 200) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
}

TEST(ClusterSpecShipping, RenderedSpecRoundTripsThePlanFingerprint) {
  const ExperimentSpec spec = small_grid_spec();
  const ExperimentSpec reparsed = parse_spec_toml(render_spec_toml(spec));
  // The property the Work grant relies on: the worker re-plans from the
  // shipped TOML and must land on the identical shard board.
  EXPECT_EQ(plan_fingerprint(plan_shards(spec)),
            plan_fingerprint(plan_shards(reparsed)));
}

TEST(ClusterRun, MatchesTheSingleProcessArtifactsOverTheSameCache) {
  ScratchDir scratch("identity");
  const ExperimentSpec spec = small_grid_spec();

  // Single-process reference run, populating the cache...
  std::ostringstream sp_log;
  RunOptions single;
  single.out_json = scratch.file("sp.json");
  single.out_csv = scratch.file("sp.csv");
  single.cache_dir = scratch.dir() + "/cache";
  single.threads = 1;
  single.log = &sp_log;
  const RunSummary sp = run_spec(spec, single);
  EXPECT_EQ(sp.jobs, 16u);
  EXPECT_EQ(sp.failures, 0u);

  // ...then a passive coordinator over the same cache, fed by two
  // in-process TCP workers: every job replays a shipped cache record and
  // the joined artifacts match byte for byte.
  const std::uint16_t port = test_port(1);
  RunOptions cluster = single;
  cluster.out_json = scratch.file("cluster.json");
  cluster.out_csv = scratch.file("cluster.csv");
  cluster.coordinator = "127.0.0.1:" + std::to_string(port);
  std::ostringstream cluster_log;
  cluster.log = &cluster_log;
  RunSummary summary;
  std::string coordinator_error;
  std::thread coordinator([&] {
    try {
      summary = run_spec(spec, cluster);
    } catch (const std::exception& e) {
      coordinator_error = e.what();
    }
  });

  const std::string endpoint = "tcp://127.0.0.1:" + std::to_string(port);
  // Start both workers only once the board listens, so neither can find
  // the run already finished by the other.
  ::close(connect_with_retry(endpoint));
  service::TcpWorkerSummary worker_summaries[2];
  std::ostringstream worker_logs[2];
  std::string worker_errors[2];
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&, i] {
      try {
        service::TcpWorkerOptions options;
        options.endpoint = endpoint;
        options.worker_id = "t" + std::to_string(i);
        worker_summaries[i] =
            run_worker_with_retry(options, worker_logs[i]);
      } catch (const std::exception& e) {
        worker_errors[i] = e.what();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  coordinator.join();

  EXPECT_EQ(coordinator_error, "");
  EXPECT_EQ(worker_errors[0], "");
  EXPECT_EQ(worker_errors[1], "");
  EXPECT_EQ(summary.jobs, 16u);
  EXPECT_EQ(summary.cache_hits, 16u);  // warm grants replay the cache
  EXPECT_EQ(summary.solved, 0u);
  EXPECT_EQ(summary.shards, 8u);
  EXPECT_EQ(worker_summaries[0].executed + worker_summaries[1].executed, 8u);
  EXPECT_EQ(slurp(single.out_json), slurp(cluster.out_json));
  EXPECT_EQ(slurp(single.out_csv), slurp(cluster.out_csv));
}

TEST(ClusterRun, CrashMidFragmentReassignsTheLeaseExactlyOnce) {
  ScratchDir scratch("crash");
  ExperimentSpec spec = small_grid_spec();
  spec.workers = {3};
  spec.z_values = {0.25};  // 2 shards (rep 0, 1), 4 jobs

  const std::uint16_t port = test_port(2);
  RunOptions cluster;
  cluster.out_json = scratch.file("cluster.json");
  cluster.out_csv = scratch.file("cluster.csv");
  cluster.cache_dir = scratch.dir() + "/cache";
  cluster.threads = 1;
  cluster.coordinator = "127.0.0.1:" + std::to_string(port);
  cluster.lease_ttl_seconds = 0.3;  // crashed lease re-pends quickly
  std::ostringstream cluster_log;
  cluster.log = &cluster_log;
  RunSummary summary;
  std::string coordinator_error;
  std::thread coordinator([&] {
    try {
      summary = run_spec(spec, cluster);
    } catch (const std::exception& e) {
      coordinator_error = e.what();
    }
  });

  // A worker that dies mid-push: lease a shard, stream HALF of a
  // FragmentPush frame, vanish without renewing.
  const std::string endpoint = "tcp://127.0.0.1:" + std::to_string(port);
  const int fd = connect_with_retry(endpoint);
  service::LeaseRequestBody acquire;
  acquire.worker_id = "crasher";
  ASSERT_TRUE(service::net::send_all(
      fd, service::encode_frame(service::FrameType::LeaseRequest,
                                service::encode_lease_request(acquire))));
  std::string buffer;
  const service::Frame reply =
      service::net::read_frame(fd, buffer, "crasher");
  ASSERT_EQ(reply.type, service::FrameType::LeaseGrant);
  const service::LeaseGrantBody grant =
      service::decode_lease_grant(reply.payload);
  ASSERT_EQ(grant.kind, service::LeaseGrantBody::Kind::Work);
  service::FragmentPushBody push;
  push.worker_id = "crasher";
  push.shard_index = grant.shard_index;
  push.shard_id = grant.shard_id;
  push.plan_fingerprint = grant.plan_fingerprint;
  push.fragment = std::string(512, 'x');
  const std::string frame = service::encode_frame(
      service::FrameType::FragmentPush, service::encode_fragment_push(push));
  ASSERT_TRUE(service::net::send_all(
      fd, std::string_view(frame).substr(0, frame.size() / 2)));
  ::close(fd);

  // A surviving worker finishes everything: the crashed shard re-pends
  // once its unrenewed lease expires, and is granted exactly once more.
  std::ostringstream survivor_log;
  std::string survivor_error;
  service::TcpWorkerSummary survivor_summary;
  std::thread survivor([&] {
    try {
      service::TcpWorkerOptions options;
      options.endpoint = endpoint;
      options.worker_id = "survivor";
      survivor_summary = run_worker_with_retry(options, survivor_log);
    } catch (const std::exception& e) {
      survivor_error = e.what();
    }
  });
  survivor.join();
  coordinator.join();

  EXPECT_EQ(coordinator_error, "");
  EXPECT_EQ(survivor_error, "");
  EXPECT_EQ(summary.jobs, 4u);
  EXPECT_EQ(summary.failures, 0u);
  EXPECT_EQ(survivor_summary.executed, 2u);
  EXPECT_NE(cluster_log.str().find("1 lease reassignment(s)"),
            std::string::npos)
      << cluster_log.str();
  // The torn frame died in the dead connection's receive buffer; it never
  // reached the board as a (discarded) fragment.
  EXPECT_NE(cluster_log.str().find("0 fragment(s) discarded"),
            std::string::npos)
      << cluster_log.str();

  // A single-process run over the coordinator's cache replays the cluster
  // run's artifacts byte for byte -- including the reassigned shard.
  std::ostringstream warm_log;
  RunOptions warm;
  warm.out_json = scratch.file("sp.json");
  warm.out_csv = scratch.file("sp.csv");
  warm.cache_dir = cluster.cache_dir;
  warm.threads = 1;
  warm.log = &warm_log;
  const RunSummary sp = run_spec(spec, warm);
  EXPECT_EQ(sp.cache_hits, 4u);
  EXPECT_EQ(slurp(warm.out_json), slurp(cluster.out_json));
  EXPECT_EQ(slurp(warm.out_csv), slurp(cluster.out_csv));
}

TEST(ClusterRun, AbandonedLeaseIsReassignedAfterTheTtl) {
  // The chaos hook CI leans on: `abandon_after` makes a worker take one
  // more lease after N accepted shards and exit holding it -- the
  // deterministic stand-in for a kill -9 mid-shard.
  ScratchDir scratch("abandon");
  ExperimentSpec spec = small_grid_spec();
  spec.workers = {3};
  spec.z_values = {0.25};  // 2 shards, 4 jobs

  const std::uint16_t port = test_port(5);
  RunOptions cluster;
  cluster.out_json = scratch.file("cluster.json");
  cluster.out_csv = scratch.file("cluster.csv");
  cluster.cache_dir = scratch.dir() + "/cache";
  cluster.threads = 1;
  cluster.coordinator = "127.0.0.1:" + std::to_string(port);
  cluster.lease_ttl_seconds = 0.3;
  std::ostringstream cluster_log;
  cluster.log = &cluster_log;
  RunSummary summary;
  std::string coordinator_error;
  std::thread coordinator([&] {
    try {
      summary = run_spec(spec, cluster);
    } catch (const std::exception& e) {
      coordinator_error = e.what();
    }
  });

  const std::string endpoint = "tcp://127.0.0.1:" + std::to_string(port);
  service::TcpWorkerOptions victim_options;
  victim_options.endpoint = endpoint;
  victim_options.worker_id = "victim";
  victim_options.abandon_after = 1;
  std::ostringstream victim_log;
  const service::TcpWorkerSummary victim =
      run_worker_with_retry(victim_options, victim_log);
  EXPECT_TRUE(victim.abandoned);
  EXPECT_EQ(victim.executed, 1u);
  EXPECT_NE(victim_log.str().find("abandoning the lease"), std::string::npos)
      << victim_log.str();

  service::TcpWorkerOptions rescuer_options;
  rescuer_options.endpoint = endpoint;
  rescuer_options.worker_id = "rescuer";
  std::ostringstream rescuer_log;
  const service::TcpWorkerSummary rescuer =
      run_worker_with_retry(rescuer_options, rescuer_log);
  coordinator.join();

  EXPECT_EQ(coordinator_error, "");
  EXPECT_FALSE(rescuer.abandoned);
  EXPECT_EQ(rescuer.executed, 1u);
  EXPECT_EQ(summary.jobs, 4u);
  EXPECT_EQ(summary.failures, 0u);
  EXPECT_NE(cluster_log.str().find("1 lease reassignment(s)"),
            std::string::npos)
      << cluster_log.str();

  // Same-cache single-process replay: the rescued run's artifacts are
  // still byte-identical.
  std::ostringstream warm_log;
  RunOptions warm;
  warm.out_json = scratch.file("sp.json");
  warm.out_csv = scratch.file("sp.csv");
  warm.cache_dir = cluster.cache_dir;
  warm.threads = 1;
  warm.log = &warm_log;
  const RunSummary sp = run_spec(spec, warm);
  EXPECT_EQ(sp.cache_hits, 4u);
  EXPECT_EQ(slurp(warm.out_json), slurp(cluster.out_json));
  EXPECT_EQ(slurp(warm.out_csv), slurp(cluster.out_csv));
}

TEST(ClusterStats, StatsQueryExposesTheBoardGauges) {
  ScratchDir scratch("stats");
  const ExperimentSpec spec = small_grid_spec();
  ResultCache cache(scratch.dir() + "/cache");
  service::Coordinator coordinator(spec, plan_shards(spec), cache,
                                   service::CoordinatorConfig{});
  coordinator.start();
  service::ServeClient client(coordinator.endpoint());
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"shards_total\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards_done\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_backlog\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"leases_outstanding\": 0"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"lease_reassignments\": 0"), std::string::npos)
      << json;
  coordinator.stop();
}

TEST(ClusterStats, StopLeavesReusedConnectionFdNumbersAlone) {
  ScratchDir scratch("fdreuse");
  const ExperimentSpec spec = small_grid_spec();
  ResultCache cache(scratch.dir() + "/cache");
  service::Coordinator coordinator(spec, plan_shards(spec), cache,
                                   service::CoordinatorConfig{});
  coordinator.start();
  fd_probe::expect_stop_spares_reused_fd_numbers(
      coordinator.endpoint(), [&] { coordinator.stop(); });
}

TEST(ClusterDrain, DrainingCoordinatorSendsWorkersAway) {
  ScratchDir scratch("drain");
  const ExperimentSpec spec = small_grid_spec();
  ResultCache cache(scratch.dir() + "/cache");
  service::Coordinator coordinator(spec, plan_shards(spec), cache,
                                   service::CoordinatorConfig{});
  coordinator.start();
  coordinator.begin_drain();
  service::TcpWorkerOptions options;
  options.endpoint = coordinator.endpoint();
  options.worker_id = "drainee";
  std::ostringstream log;
  const service::TcpWorkerSummary summary =
      service::run_tcp_worker(options, log);
  EXPECT_TRUE(summary.drained);
  EXPECT_FALSE(summary.retired);
  EXPECT_EQ(summary.executed, 0u);
  coordinator.stop();
}

TEST(ClusterFlags, OutOfRangeStalenessKnobsNameTheAcceptedRange) {
  for (const char* value : {"0.01", "9000"}) {
    std::vector<const char*> argv{"dlsched_bench", "--spec",    "smoke",
                                  "--quick",       "--no-json", "--no-csv",
                                  "--no-cache",    "--lease-ttl", value};
    const CliArgs args = CliArgs::parse(static_cast<int>(argv.size()),
                                        argv.data(), bench_flags());
    try {
      (void)bench_main(args);
      FAIL() << "--lease-ttl " << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("accepted: 0.05 to 3600 seconds"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ClusterFlags, UnknownOptionsAreRejectedByName) {
  // The retired filesystem-board options and a typo must not silently
  // run the whole grid in-process.
  const std::vector<std::vector<const char*>> cases{
      {"--shard", "0/2"},
      {"--join"},
      {"--stale-seconds", "1"},
      {"--cache-dirr", "somewhere"}};
  for (const std::vector<const char*>& extra : cases) {
    std::vector<const char*> argv{"dlsched_bench", "--spec",    "smoke",
                                  "--quick",       "--no-json", "--no-csv",
                                  "--no-cache"};
    argv.insert(argv.end(), extra.begin(), extra.end());
    try {
      const CliArgs args = CliArgs::parse(static_cast<int>(argv.size()),
                                          argv.data(), bench_flags());
      (void)bench_main(args);
      ADD_FAILURE() << extra.front() << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(extra.front()), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dlsched::experiments
