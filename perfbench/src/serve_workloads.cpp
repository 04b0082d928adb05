// serve_cold and serve_warm: the `dlsched_serve` daemon in-process
// (`service::Server`), driven over its socket by `service::ServeClient`.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "answers.hpp"
#include "obs/trace.hpp"
#include "run_record.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace service = dlsched::service;
using Clock = std::chrono::steady_clock;

constexpr const char* kSolver = "fifo_optimal";
/// Offered rate of serve_cold's open loop: one the seed daemon sustains
/// on a 4-core machine with room to spare (see README.md).
constexpr double kColdRate = 150.0;
constexpr std::size_t kConnections = 4;
/// Latency and rate are taken over the quiet windows of a run
/// (`window_stats`), each this many seconds long.
constexpr double kWindowSeconds = 1.0;
constexpr std::size_t kWarmDistinct = 1000;
/// serve_cold's golden digest covers its first requests only, so it does
/// not depend on --seconds; shorter runs still check that many.
constexpr std::size_t kGoldenRequests = 1000;
/// Latency samples kept per connection and window (`WindowSamples`): about
/// what one connection of the seed daemon completes in a window.
constexpr std::size_t kWarmSamplesPerWindow = 8192;
/// Bounds the span buffers of a traced serve_warm phase.
constexpr std::size_t kTracedWarmCap = 30000;
constexpr std::uint64_t kColdSalt = 1;
constexpr std::uint64_t kWarmSalt = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::size_t window_count(double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds / kWindowSeconds)));
}

std::string window_note(const WindowStats& quiet, std::size_t windows) {
  return "latency over " + std::to_string(quiet.samples) +
         " requests kept in the " + std::to_string(quiet.windows) +
         " quietest windows of " + std::to_string(windows);
}

/// `n` distinct requests in the `dlsched_replay record` shape: the
/// replay generator's own stream (random_star, p = 6, Exact), decoded.
std::vector<dlsched::SolveRequest> make_requests(std::size_t n,
                                                 std::uint64_t base) {
  service::RecordParams params;
  params.requests = n;
  params.distinct = n;
  params.p = 6;
  params.seed = base;
  params.solver = kSolver;
  std::vector<dlsched::SolveRequest> requests;
  requests.reserve(n);
  for (const std::string& body :
       service::load_stream(service::record_stream(params))) {
    requests.push_back(service::decode_request_body(body).request);
  }
  return requests;
}

std::vector<Job> as_jobs(const std::vector<dlsched::SolveRequest>& requests,
                         std::size_t count) {
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back({kSolver, requests[i]});
  }
  return jobs;
}

/// Seeded Poisson arrival times of `n` requests, scaled so that the last
/// one is due at n / kColdRate: every seed offers the same rate.
std::vector<double> poisson_schedule(std::size_t n, std::uint64_t seed) {
  dlsched::Rng rng(seed);
  std::vector<double> due(n);
  double t = 0.0;
  for (double& d : due) {
    t += -std::log(1.0 - rng.uniform(0.0, 1.0));
    d = t;
  }
  const double scale = static_cast<double>(n) / kColdRate / t;
  for (double& d : due) d *= scale;
  return due;
}

struct DaemonStats {
  double completed = 0.0;
  double cache_hits = 0.0;
  double rejected = 0.0;
  double solved = 0.0;
};

/// One daemon with a fresh cache; stopping it removes its directory.
class Daemon {
 public:
  explicit Daemon(std::string dir) : dir_(std::move(dir)) {
    fs::create_directories(dir_);
    service::ServerConfig config;
    config.socket_path = socket();
    config.cache_dir = dir_ + "/cache";
    server_ = std::make_unique<service::Server>(config);
  }
  ~Daemon() {
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::string socket() const { return dir_ + "/d.sock"; }

  [[nodiscard]] DaemonStats stats() const {
    service::ServeClient client(socket());
    const std::string json = client.stats_json();
    return {service::json_number_field(json, "completed"),
            service::json_number_field(json, "cache_hits"),
            service::json_number_field(json, "rejected"),
            service::json_number_field(json, "solved")};
  }

 private:
  std::string dir_;
  std::unique_ptr<service::Server> server_;
};

struct Answer {
  bool answered = false;
  service::SolveRecord record;
  std::string raw;
};

/// Sends every request once over `kConnections` connections; the closed
/// loop of the warm set-up.
std::vector<Answer> presolve(
    const Daemon& daemon, const std::vector<dlsched::SolveRequest>& requests) {
  std::vector<Answer> answers(requests.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t k = 0; k < kConnections; ++k) {
    pool.emplace_back([&] {
      try {
        service::ServeClient client(daemon.socket());
        for (std::size_t i = next.fetch_add(1); i < requests.size();
             i = next.fetch_add(1)) {
          service::SolveReply reply = client.solve(kSolver, requests[i]);
          if (reply.kind != service::SolveReply::Kind::Result) continue;
          answers[i] = {true, std::move(reply.record),
                        std::move(reply.raw_body)};
        }
      } catch (const std::exception&) {
        // A broken connection leaves its answers missing: counted failed.
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return answers;
}

/// Counts the answers that are missing or differ from the reference.
std::size_t count_wrong(const std::vector<Answer>& answers,
                        const std::vector<service::SolveRecord>& references) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    if (!answers[i].answered ||
        !answer_matches(answers[i].record, references[i])) {
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace

Outcome run_serve_cold(const Config& config, const Phase& phase) {
  Outcome out;
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(kColdRate * phase.seconds)));
  const std::uint64_t base = derive_seed(config.seed, kColdSalt);

  // Set-up: a fresh daemon on an empty cache, the distinct requests and
  // their seeded Poisson send schedule.
  const std::size_t generated = std::max(n, kGoldenRequests);
  std::vector<dlsched::SolveRequest> requests;
  std::vector<double> due_s;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t s = 0; s < phase.setups; ++s) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(config.work_dir + "/" + phase.tag +
                                      "cold" + std::to_string(s));
    requests = make_requests(generated, base);
    due_s = poisson_schedule(n, derive_seed(base, 0));
    out.setup_s.push_back(seconds_since(t0));
  }

  // Open loop: a free connection takes the next request and sends it at
  // its due time, or at once when it is already late.
  const DaemonStats before = daemon->stats();
  std::vector<Answer> answers(n);
  std::vector<double> latency(n, -1.0);
  std::vector<double> lag(n, 0.0);
  std::vector<std::unique_ptr<service::ServeClient>> clients;
  for (std::size_t k = 0; k < kConnections; ++k) {
    clients.push_back(std::make_unique<service::ServeClient>(daemon->socket()));
  }
  TraceWindow trace(phase.traced);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const std::size_t windows = window_count(phase.seconds);
  StealSampler steal(start, due_s.back() / static_cast<double>(windows),
                     windows);
  std::vector<Clock::time_point> last_done(kConnections, start);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> senders;
  for (std::size_t k = 0; k < kConnections; ++k) {
    senders.emplace_back([&, k] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          const Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
          std::this_thread::sleep_until(due);
          const Clock::time_point sent = Clock::now();
          dlsched::obs::ObsSpan span("bench", "roundtrip");
          service::SolveReply reply = clients[k]->solve(kSolver, requests[i]);
          span.finish();
          const Clock::time_point done = Clock::now();
          latency[i] = ms_between(due, done);
          lag[i] = ms_between(due, sent);
          last_done[k] = done;
          if (reply.kind == service::SolveReply::Kind::Result) {
            answers[i] = {true, std::move(reply.record), {}};
          }
        }
      } catch (const std::exception&) {
        // The connection broke: its remaining requests stay unanswered.
      }
    });
  }
  for (std::thread& t : senders) t.join();
  trace.close(out.traced);
  out.peak_rss_mb = peak_rss_mb();
  clients.clear();
  const DaemonStats after = daemon->stats();
  daemon.reset();

  const Clock::time_point end =
      *std::max_element(last_done.begin(), last_done.end());
  out.busy_s = std::chrono::duration<double>(end - start).count();
  std::vector<WindowSamples> samples;
  samples.emplace_back(due_s.back(), windows, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!answers[i].answered) continue;
    samples[0].add(due_s[i], latency[i]);
    out.traced.lp_pivots += answers[i].record.lp_pivots;
  }
  out.traced.latency_total_us = samples[0].total() * 1000.0;
  const WindowStats quiet = window_stats(samples, steal.shares());
  out.notes.push_back(window_note(quiet, windows));
  out.p50_ms = quiet.p50;
  out.p90_ms = quiet.p90;
  out.p99_ms = quiet.p99;
  out.ops_per_s =
      static_cast<double>(samples[0].total_count()) / out.busy_s;
  out.jobs_per_s = out.ops_per_s;
  out.attempted = n;

  // Validity: every request missed the cache, none was refused, and the
  // daemon kept up with the offered rate.
  const double hits = after.cache_hits - before.cache_hits;
  const double answered = after.completed - before.completed;
  if (hits != 0.0) out.invalid.push_back("serve_cold saw cache hits");
  if (after.rejected != before.rejected) {
    out.invalid.push_back("serve_cold saw rejects");
  }
  const double offered = static_cast<double>(n) / due_s.back();
  if (std::abs(out.ops_per_s / offered - 1.0) > 0.05) {
    out.invalid.push_back("serve_cold achieved " +
                          std::to_string(out.ops_per_s) + " req/s against " +
                          std::to_string(offered) + " offered");
  }
  out.notes.push_back("offered " + std::to_string(offered) +
                      " req/s, achieved " + std::to_string(out.ops_per_s));

  // Answers: each against its directly solved reference, and the first
  // references against the golden digest.
  if (config.corrupt && answers[0].answered) corrupt_record(answers[0].record);
  const std::vector<service::SolveRecord> references =
      reference_records(as_jobs(requests, generated), config.threads);
  out.failed = count_wrong(answers, references);
  const std::vector<service::SolveRecord> covered(
      references.begin(), references.begin() + kGoldenRequests);
  if (!check_golden(config, digest_hex(fold_records(covered)), out)) {
    out.failed = std::max(out.failed, std::min(n, kGoldenRequests));
  }

  out.traced.ops = n;
  out.traced.threads = config.threads;
  out.traced.hit_ratio = answered > 0.0 ? hits / answered : 0.0;
  out.traced.send_lag_ms = std::move(lag);
  return out;
}

Outcome run_serve_warm(const Config& config, const Phase& phase) {
  Outcome out;
  const std::uint64_t base = derive_seed(config.seed, kWarmSalt);

  // Set-up: a fresh daemon, the distinct requests, and one pass over them
  // that solves and caches every answer.
  std::vector<dlsched::SolveRequest> requests;
  std::vector<Answer> setup_answers;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t s = 0; s < phase.setups; ++s) {
    daemon.reset();
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(config.work_dir + "/" + phase.tag +
                                      "warm" + std::to_string(s));
    requests = make_requests(kWarmDistinct, base);
    setup_answers = presolve(*daemon, requests);
    out.setup_s.push_back(seconds_since(t0));
  }

  // Closed loop: each connection sends its next request as soon as the
  // previous reply is in, walking one seeded shuffle of the requests.
  dlsched::Rng rng(derive_seed(base, 0));
  const std::vector<std::size_t> order = rng.permutation(kWarmDistinct);
  const DaemonStats before = daemon->stats();
  const std::size_t windows = window_count(phase.seconds);
  std::vector<WindowSamples> samples;
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> sent{0};
  std::vector<std::unique_ptr<service::ServeClient>> clients;
  for (std::size_t k = 0; k < kConnections; ++k) {
    clients.push_back(std::make_unique<service::ServeClient>(daemon->socket()));
    samples.emplace_back(phase.seconds, windows, kWarmSamplesPerWindow);
  }
  const std::size_t cap =
      phase.traced ? kTracedWarmCap : std::numeric_limits<std::size_t>::max();
  TraceWindow trace(phase.traced);
  const Clock::time_point start = Clock::now();
  StealSampler steal(start, phase.seconds / static_cast<double>(windows),
                     windows);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(phase.seconds));
  std::vector<Clock::time_point> last_done(kConnections, start);
  std::vector<std::thread> loops;
  for (std::size_t k = 0; k < kConnections; ++k) {
    loops.emplace_back([&, k] {
      try {
        while (Clock::now() < deadline) {
          const std::size_t i = sent.fetch_add(1);
          if (i >= cap) break;
          const std::size_t r = order[i % kWarmDistinct];
          const Clock::time_point t0 = Clock::now();
          dlsched::obs::ObsSpan span("bench", "roundtrip");
          const service::SolveReply reply =
              clients[k]->solve(kSolver, requests[r]);
          span.finish();
          const Clock::time_point done = Clock::now();
          samples[k].add(ms_between(start, t0) * 1e-3, ms_between(t0, done));
          last_done[k] = done;
          if (reply.kind != service::SolveReply::Kind::Result ||
              reply.raw_body != setup_answers[r].raw) {
            wrong.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : loops) t.join();
  trace.close(out.traced);
  out.peak_rss_mb = peak_rss_mb();
  clients.clear();
  const DaemonStats after = daemon->stats();
  daemon.reset();

  const Clock::time_point end =
      *std::max_element(last_done.begin(), last_done.end());
  out.busy_s = std::chrono::duration<double>(end - start).count();
  const WindowStats quiet = window_stats(samples, steal.shares());
  out.notes.push_back(window_note(quiet, windows));
  std::size_t completed = 0;
  for (const WindowSamples& recorded : samples) {
    completed += recorded.total_count();
    out.traced.latency_total_us += recorded.total() * 1000.0;
  }
  out.p50_ms = quiet.p50;
  out.p90_ms = quiet.p90;
  out.p99_ms = quiet.p99;
  out.ops_per_s = quiet.rate;
  out.jobs_per_s = out.ops_per_s;
  out.attempted = completed + kWarmDistinct;

  // Validity: every measured answer was a cache hit and nothing solved.
  const double hits = after.cache_hits - before.cache_hits;
  const double answered = after.completed - before.completed;
  if (hits != answered || answered != static_cast<double>(completed)) {
    out.invalid.push_back("serve_warm answered " + std::to_string(answered) +
                          " requests with " + std::to_string(hits) +
                          " cache hits");
  }
  if (after.solved != before.solved) {
    out.invalid.push_back("serve_warm solved during measurement");
  }

  // Answers: measured replies were compared byte for byte with the set-up
  // reply; the set-up replies are checked against their references.
  if (config.corrupt) corrupt_record(setup_answers[0].record);
  const std::vector<service::SolveRecord> references =
      reference_records(as_jobs(requests, kWarmDistinct), config.threads);
  out.failed = wrong.load() + count_wrong(setup_answers, references);
  if (!check_golden(config, digest_hex(fold_records(references)), out)) {
    out.failed = std::max(out.failed, kWarmDistinct);
  }

  out.traced.ops = completed;
  out.traced.threads = config.threads;
  out.traced.hit_ratio = answered > 0.0 ? hits / answered : 0.0;
  return out;
}

std::string serve_reference_digest(const Config& config) {
  const bool cold = config.workload == "serve_cold";
  const std::size_t count = cold ? kGoldenRequests : kWarmDistinct;
  const std::vector<dlsched::SolveRequest> requests = make_requests(
      count, derive_seed(config.seed, cold ? kColdSalt : kWarmSalt));
  return digest_hex(fold_records(
      reference_records(as_jobs(requests, count), config.threads)));
}

}  // namespace perfbench
