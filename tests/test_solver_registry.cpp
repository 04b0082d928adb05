// Tests of the unified solver interface: every registered methodology must
// produce a validator-clean schedule, and the theorem-backed orderings must
// dominate the ablation heuristics.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "affine/selection.hpp"
#include "core/brute_force.hpp"
#include "core/local_search.hpp"
#include "core/solver.hpp"
#include "obs/trace.hpp"
#include "platform/generators.hpp"
#include "schedule/validator.hpp"
#include "util/error.hpp"
#include "util/fan_out.hpp"
#include "util/rng.hpp"

namespace dlsched {
namespace {

/// A platform every solver is applicable to: a bus (for Theorem 2) with a
/// uniform return ratio z = 1/2 < 1 (for the exchange solver) and few
/// enough workers for the exhaustive searches.
StarPlatform all_solver_platform() {
  return StarPlatform::bus(0.25, 0.125, {0.5, 1.0, 2.0, 4.0});
}

SolveRequest request_for(const StarPlatform& platform) {
  SolveRequest request;
  request.platform = platform;
  return request;
}

TEST(SolverRegistry, RegistersThePortfolio) {
  const std::vector<std::string> names = SolverRegistry::instance().names();
  EXPECT_GE(names.size(), 8u);
  for (const char* expected :
       {"fifo_optimal", "lifo", "brute_force", "brute_force_fifo",
        "brute_force_lifo", "inc_c", "inc_w", "dec_c", "random_fifo",
        "local_search", "two_port_fifo", "bus_closed_form", "no_return",
        "multiround", "exchange_sort", "mirror_fifo", "scenario_lp",
        "affine_fifo", "affine_greedy", "affine_subset",
        "affine_local_search"}) {
    EXPECT_TRUE(std::count(names.begin(), names.end(), expected) == 1)
        << "missing solver: " << expected;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SolverRegistry, InfosCarryDescriptionsAndPaperRefs) {
  for (const SolverInfo& info : SolverRegistry::instance().infos()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty());
    EXPECT_FALSE(info.paper_ref.empty());
  }
}

TEST(SolverRegistry, UnknownNameThrowsWithKnownNames) {
  const SolveRequest request = request_for(all_solver_platform());
  try {
    (void)SolverRegistry::instance().run("does_not_exist", request);
    FAIL() << "expected dlsched::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does_not_exist"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("fifo_optimal"), std::string::npos);
  }
}

TEST(SolverRegistry, DuplicateRegistrationThrows) {
  SolverRegistry registry;  // private registry; builtins not registered
  registry.add([] {
    return SolverRegistry::instance().create("fifo_optimal");
  });
  EXPECT_THROW(registry.add([] {
    return SolverRegistry::instance().create("fifo_optimal");
  }),
               Error);
}

TEST(SolverRegistry, EverySolverProducesAValidatorCleanSchedule) {
  const StarPlatform platform = all_solver_platform();
  const SolveRequest request = request_for(platform);
  for (const std::string& name : SolverRegistry::instance().names()) {
    const auto solver = SolverRegistry::instance().create(name);
    std::string why;
    ASSERT_TRUE(solver->applicable(request, &why)) << name << ": " << why;
    const SolveResult result = SolverRegistry::instance().run(name, request);
    EXPECT_EQ(result.solver, name);
    EXPECT_GT(result.throughput(), 0.0) << name;
    const ValidationReport report =
        validate(result.schedule_platform, result.schedule);
    EXPECT_TRUE(report.ok) << name << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  }
}

TEST(SolverRegistry, FifoOptimalDominatesTheFifoHeuristics) {
  Rng rng(20060419);
  for (int trial = 0; trial < 5; ++trial) {
    SolveRequest request;
    request.platform = gen::random_star(6, rng, 0.5);
    request.seed = 100 + static_cast<std::uint64_t>(trial);
    const double best =
        SolverRegistry::instance().run("fifo_optimal", request).throughput();
    for (const char* heuristic : {"inc_c", "inc_w", "dec_c", "random_fifo"}) {
      const double rho =
          SolverRegistry::instance().run(heuristic, request).throughput();
      EXPECT_LE(rho, best + 1e-9) << heuristic << " beat fifo_optimal";
    }
  }
}

TEST(SolverRegistry, ExplicitScenarioMatchesTheLifoClosedForm) {
  const StarPlatform platform = all_solver_platform();
  SolveRequest request = request_for(platform);
  const SolveResult closed =
      SolverRegistry::instance().run("lifo", request);
  request.scenario = Scenario::lifo(platform.order_by_c());
  const SolveResult lp =
      SolverRegistry::instance().run("scenario_lp", request);
  EXPECT_EQ(closed.solution.throughput, lp.solution.throughput);
}

TEST(SolverRegistry, BusClosedFormRequiresABus) {
  Rng rng(7);
  SolveRequest request;
  request.platform = gen::random_star(4, rng, 0.5);
  const auto solver = SolverRegistry::instance().create("bus_closed_form");
  std::string why;
  EXPECT_FALSE(solver->applicable(request, &why));
  EXPECT_NE(why.find("bus"), std::string::npos);
  EXPECT_THROW((void)solver->solve(request), Error);
}

TEST(SolverRegistry, BruteForceHonoursTheTimeBudget) {
  Rng rng(11);
  SolveRequest request;
  request.platform = gen::random_star(6, rng, 0.5);
  request.max_workers_brute = 6;
  request.precision = Precision::Fast;
  request.time_budget_seconds = 1e-6;  // expire essentially immediately
  const SolveResult result =
      SolverRegistry::instance().run("brute_force", request);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.provably_optimal);
  EXPECT_LT(result.scenarios_tried, 720u * 720u);
  EXPECT_GT(result.throughput(), 0.0);
  EXPECT_TRUE(validate(result.schedule_platform, result.schedule).ok);
}

TEST(SolverRegistry, WallClockIsStamped) {
  const SolveResult result = SolverRegistry::instance().run(
      "fifo_optimal", request_for(all_solver_platform()));
  EXPECT_GE(result.wall_seconds, 0.0);
}

// ----------------------------------------------------------------- batch --

TEST(SolveBatch, RunsOneRequestAcrossAllSolvers) {
  const StarPlatform platform = all_solver_platform();
  const std::vector<std::string> names = SolverRegistry::instance().names();
  const std::vector<BatchOutcome> outcomes =
      solve_batch_across_solvers(request_for(platform), names);
  ASSERT_EQ(outcomes.size(), names.size());  // all applicable on the bus
  for (const BatchOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.solved) << outcome.solver << ": " << outcome.error;
    EXPECT_TRUE(outcome.ok) << outcome.solver;
  }
}

TEST(SolveBatch, OutcomesAreDeterministicAcrossThreadCounts) {
  const SolveRequest request = request_for(all_solver_platform());
  const std::vector<std::string> names = SolverRegistry::instance().names();
  const auto serial = solve_batch_across_solvers(request, names, 1);
  const auto parallel = solve_batch_across_solvers(request, names, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].solver, parallel[i].solver);
    EXPECT_EQ(serial[i].result.throughput(), parallel[i].result.throughput());
  }
}

TEST(SolveBatch, SkipsInapplicableSolvers) {
  Rng rng(3);
  SolveRequest request;
  request.platform = gen::random_star(4, rng, 2.0);  // z > 1, not a bus
  const std::vector<std::string> names{"fifo_optimal", "bus_closed_form",
                                       "exchange_sort"};
  const auto outcomes = solve_batch_across_solvers(request, names);
  ASSERT_EQ(outcomes.size(), 1u);  // only fifo_optimal survives the filter
  EXPECT_EQ(outcomes[0].solver, "fifo_optimal");
  EXPECT_TRUE(outcomes[0].ok);
}

TEST(SolveBatch, ReportsFailuresWithoutAbortingTheBatch) {
  std::vector<BatchJob> jobs(2);
  jobs[0].solver = "fifo_optimal";
  jobs[0].request = request_for(all_solver_platform());
  jobs[1].solver = "bus_closed_form";
  Rng rng(5);
  jobs[1].request.platform = gen::random_star(3, rng, 0.5);  // not a bus
  const auto outcomes = solve_batch(jobs);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].solved);
  EXPECT_FALSE(outcomes[1].error.empty());
}

TEST(RequestHash, CanonicalKeyIsStableAndFieldSensitive) {
  const SolveRequest base = request_for(all_solver_platform());
  EXPECT_EQ(request_canonical_key(base), request_canonical_key(base));
  EXPECT_EQ(request_hash(base), request_hash(base));

  SolveRequest other = base;
  other.seed = base.seed + 1;
  EXPECT_NE(request_hash(base), request_hash(other));

  other = base;
  other.precision = Precision::Fast;
  EXPECT_NE(request_hash(base), request_hash(other));

  other = base;
  other.two_port = true;
  EXPECT_NE(request_hash(base), request_hash(other));

  Rng rng(3);
  other = base;
  other.platform = gen::random_star(4, rng, 0.5);
  EXPECT_NE(request_hash(base), request_hash(other));

  // Per-worker latency overrides are part of the job identity: a vector
  // that merely repeats the global scalar still keys differently (the LP
  // path differs), and distinct vectors key distinctly.
  other = base;
  other.costs.send_latency_per_worker.assign(other.platform.size(), 0.0);
  EXPECT_NE(request_hash(base), request_hash(other));
  SolveRequest skewed = other;
  skewed.costs.send_latency_per_worker.back() = 0.25;
  EXPECT_NE(request_hash(other), request_hash(skewed));
  other = base;
  other.costs.return_latency_per_worker.assign(other.platform.size(), 0.01);
  EXPECT_NE(request_hash(base), request_hash(other));
}

TEST(RequestHash, WorkerNamesDoNotAffectTheKey) {
  SolveRequest named = request_for(all_solver_platform());
  std::vector<Worker> workers(named.platform.workers().begin(),
                              named.platform.workers().end());
  for (Worker& w : workers) w.name = "renamed-" + w.name;
  SolveRequest renamed = named;
  renamed.platform = StarPlatform(std::move(workers));
  EXPECT_EQ(request_hash(named), request_hash(renamed));
}

TEST(RequestHash, JobHashDistinguishesSolvers) {
  const SolveRequest request = request_for(all_solver_platform());
  const std::string a = job_hash_hex("fifo_optimal", request);
  const std::string b = job_hash_hex("lifo", request);
  EXPECT_EQ(a.size(), 32u);
  EXPECT_EQ(b.size(), 32u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, job_hash_hex("fifo_optimal", request));
}

TEST(SolveBatch, DedupesByteIdenticalJobsAndSkipsTheirValidation) {
  const SolveRequest request = request_for(all_solver_platform());
  std::vector<BatchJob> jobs(3);
  jobs[0] = {"fifo_optimal", request};
  jobs[1] = {"fifo_optimal", request};  // byte-identical duplicate
  jobs[2] = {"lifo", request};
  const auto outcomes = solve_batch(jobs, 2);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[0].deduped);
  EXPECT_TRUE(outcomes[1].deduped);
  EXPECT_FALSE(outcomes[2].deduped);
  // The duplicate carries the primary's result but no validator re-run.
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_DOUBLE_EQ(outcomes[1].result.throughput(),
                   outcomes[0].result.throughput());
  EXPECT_GT(outcomes[0].validate_seconds, 0.0);
  EXPECT_EQ(outcomes[1].validate_seconds, 0.0);
}

TEST(SolveBatch, ExposesPerJobWallTimeDiagnostics) {
  const SolveRequest request = request_for(all_solver_platform());
  const std::vector<BatchJob> jobs{{"fifo_optimal", request}};
  const auto outcomes = solve_batch(jobs);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_GT(outcomes[0].result.wall_seconds, 0.0);
  EXPECT_GE(outcomes[0].validate_seconds, 0.0);
}

TEST(SolveBatch, OneSolverAcrossManyPlatforms) {
  Rng rng(13);
  std::vector<StarPlatform> platforms;
  for (int i = 0; i < 6; ++i) {
    platforms.push_back(gen::random_star(5, rng, 0.5));
  }
  const auto outcomes =
      solve_batch_across_platforms("fifo_optimal", platforms);
  ASSERT_EQ(outcomes.size(), platforms.size());
  for (const BatchOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok) << outcome.error;
  }
}

TEST(SolveBatch, ProgressHookSeesEveryPrimaryJobInOrder) {
  Rng rng(21);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 4; ++i) {
    BatchJob job{"lifo", {}};
    job.request.platform = gen::random_star(4, rng, 0.5);
    jobs.push_back(std::move(job));
  }
  jobs.push_back(jobs.back());  // a duplicate: deduped, never reported
  std::vector<std::size_t> completed_counts;
  std::size_t reported_total = 0;
  const auto outcomes = solve_batch(
      jobs, 2, [&](const BatchProgress& progress, const BatchOutcome& o) {
        completed_counts.push_back(progress.completed);
        reported_total = progress.total;
        EXPECT_TRUE(o.solved);
        return true;
      });
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_EQ(reported_total, 4u);  // primaries only
  ASSERT_EQ(completed_counts.size(), 4u);
  for (std::size_t i = 0; i < completed_counts.size(); ++i) {
    EXPECT_EQ(completed_counts[i], i + 1);  // serialized, monotonic
  }
  EXPECT_TRUE(outcomes[4].deduped);
}

TEST(SolveBatch, ProgressHookCanCancelTheRemainder) {
  Rng rng(22);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 5; ++i) {
    BatchJob job{"lifo", {}};
    job.request.platform = gen::random_star(4, rng, 0.5);
    jobs.push_back(std::move(job));
  }
  // Single-threaded for a deterministic cut: cancel after the first job.
  const auto outcomes =
      solve_batch(jobs, 1, [](const BatchProgress& progress,
                              const BatchOutcome&) {
        return progress.completed < 1;
      });
  ASSERT_EQ(outcomes.size(), 5u);
  EXPECT_TRUE(outcomes[0].solved);
  EXPECT_FALSE(outcomes[0].cancelled);
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].solved) << i;
    EXPECT_TRUE(outcomes[i].cancelled) << i;
    EXPECT_NE(outcomes[i].error.find("cancelled"), std::string::npos);
  }
}

// ------------------------------------------------------------ solve pool --

/// `count` distinct cheap jobs over four solvers (no dedupe).
std::vector<BatchJob> pool_jobs(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  const char* solvers[] = {"lifo", "inc_c", "fifo_optimal", "inc_w"};
  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < count; ++i) {
    BatchJob job{solvers[i % 4], {}};
    job.request.platform = gen::random_star(4 + i % 3, rng, 0.5);
    job.request.precision = Precision::Fast;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Everything about an outcome that does not depend on timing.
bool same_answers(const std::vector<BatchOutcome>& a,
                  const std::vector<BatchOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].solver != b[i].solver || a[i].solved != b[i].solved ||
        a[i].ok != b[i].ok || a[i].deduped != b[i].deduped ||
        a[i].result.throughput() != b[i].result.throughput() ||
        a[i].result.solution_double().alpha !=
            b[i].result.solution_double().alpha) {
      return false;
    }
  }
  return true;
}

TEST(SolvePool, ConcurrentCallersGetTheSerialOutcomes) {
  const std::vector<BatchJob> jobs = pool_jobs(12, 41);
  const std::vector<BatchOutcome> serial = solve_batch(jobs, 1);
  // Two callers share the pool at once; when one holds every helper the
  // other runs its own jobs, so neither can wait forever.
  std::vector<BatchOutcome> results[2][4];
  std::thread callers[2];
  for (std::size_t c = 0; c < 2; ++c) {
    callers[c] = std::thread([&, c] {
      for (std::vector<BatchOutcome>& out : results[c]) {
        out = solve_batch(jobs, 4);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (std::size_t c = 0; c < 2; ++c) {
    for (const std::vector<BatchOutcome>& out : results[c]) {
      EXPECT_TRUE(same_answers(out, serial)) << "caller " << c;
    }
  }
}

/// Runs `check` in a forked child, whose pool starts without helpers, and
/// reports its verdict.  A child that hangs is killed after 60 s and fails
/// the test instead of stalling the suite.
::testing::AssertionResult in_forked_child(
    const std::function<bool()>& check) {
  const pid_t pid = ::fork();
  if (pid < 0) return ::testing::AssertionFailure() << "fork failed";
  if (pid == 0) ::_exit(check() ? 0 : 1);
  int status = 0;
  pid_t done = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid, SIGKILL);
    (void)::waitpid(pid, &status, 0);
    return ::testing::AssertionFailure()
           << "forked child did not finish within 60 s";
  }
  if (done != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return ::testing::AssertionFailure() << "child status " << status;
  }
  return ::testing::AssertionSuccess();
}

TEST(SolvePool, ForkedChildRunsAPooledBatch) {
  const std::vector<BatchJob> jobs = pool_jobs(8, 42);
  const std::vector<BatchOutcome> serial = solve_batch(jobs, 1);
  ASSERT_TRUE(same_answers(solve_batch(jobs, 4), serial));
  ASSERT_GT(fan_out_helpers(), 0u);  // the pool is up before the fork
  EXPECT_TRUE(in_forked_child([&] {
    // No helper survived the fork; the child's pool respawns its own.
    return fan_out_helpers() == 0 &&
           same_answers(solve_batch(jobs, 4), serial);
  }));
  // The parent's helpers respawn too.
  EXPECT_TRUE(same_answers(solve_batch(jobs, 4), serial));
}

TEST(SolvePool, RepeatedBatchesReuseTheSameLanes) {
  const std::vector<BatchJob> jobs = pool_jobs(4, 43);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable("solve-pool-test");
  for (int i = 0; i < 50; ++i) (void)solve_batch(jobs, 4);
  const obs::ProcessTrace trace = tracer.drain();
  tracer.disable();
  std::set<std::uint32_t> lanes;
  std::size_t solves = 0;
  for (const obs::SpanRecord& span : trace.spans) {
    lanes.insert(span.lane);
    if (span.category == "solve") ++solves;
  }
  EXPECT_GE(solves, 200u);
  // The caller plus the same three parked helpers, not a new thread (and
  // a new tracer lane) per job.
  EXPECT_LE(lanes.size(), 4u);
}

TEST(FanOut, RunsEveryIndexExactlyOnce) {
  for (const std::size_t lanes : {1u, 2u, 4u, 9u}) {
    std::vector<int> hits(37, 0);
    fan_out(hits.size(), lanes, [&](std::size_t i) { ++hits[i]; });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 37) << lanes;
  }
}

TEST(FanOut, RethrowsTheFirstFailureOnTheCaller) {
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(fan_out(64, 4,
                       [&](std::size_t i) {
                         ++ran;
                         if (i == 3) throw std::runtime_error("job 3");
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(1));
                       }),
               std::runtime_error);
  EXPECT_LT(ran.load(), 64u);  // the range closed after the failure
  // The pool is healthy afterwards.
  std::atomic<std::size_t> after{0};
  fan_out(16, 4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 16u);
}

TEST(FanOut, LaneCountResolvesHardwareAndCaps) {
  EXPECT_EQ(lane_count(4, 2), 2u);
  EXPECT_EQ(lane_count(3, 10), 3u);
  EXPECT_EQ(lane_count(5, 0), 1u);
  EXPECT_GE(lane_count(0, 1000), 1u);
  EXPECT_EQ(lane_count(0, 1), 1u);
}

TEST(FanOut, NestedCallsRunEveryIndexExactlyOnce) {
  for (const std::size_t lanes : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> middle(5 * 7);
    std::vector<std::atomic<int>> deep(5 * 7 * 3);
    fan_out(5, lanes, [&](std::size_t i) {
      fan_out(7, lanes, [&](std::size_t j) {
        ++middle[i * 7 + j];
        fan_out(3, lanes, [&](std::size_t k) { ++deep[(i * 7 + j) * 3 + k]; });
      });
    });
    EXPECT_TRUE(std::all_of(middle.begin(), middle.end(),
                            [](const std::atomic<int>& n) { return n == 1; }))
        << lanes;
    EXPECT_TRUE(std::all_of(deep.begin(), deep.end(),
                            [](const std::atomic<int>& n) { return n == 1; }))
        << lanes;
  }
}

/// Collects the threads that run a call's bodies.
class ThreadLog {
 public:
  void record() {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.insert(std::this_thread::get_id());
  }
  std::set<std::thread::id> take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(threads_, {});
  }

 private:
  std::mutex mutex_;
  std::set<std::thread::id> threads_;
};

TEST(FanOut, NestedCallsKeepTheLanesOfTheCallTheyRunIn) {
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  ThreadLog log;
  const auto nested = [&] {
    fan_out(16, 4, [&](std::size_t) { log.record(); });
  };
  // Inside a one-lane call, every nested call runs on the caller.
  fan_out(3, 1, [&](std::size_t) { nested(); });
  EXPECT_EQ(log.take(), caller);
  // So inside a one-thread batch (the hook runs in the batch's body).
  (void)solve_batch(pool_jobs(6, 44), 1,
                    [&](const BatchProgress&, const BatchOutcome&) {
                      nested();
                      return true;
                    });
  EXPECT_EQ(log.take(), caller);
  // Inside a two-lane call, each nested call uses at most two threads.
  ThreadLog logs[2];
  fan_out(2, 2, [&](std::size_t i) {
    fan_out(16, 4, [&](std::size_t) { logs[i].record(); });
  });
  for (ThreadLog& each : logs) EXPECT_LE(each.take().size(), 2u);
}

TEST(FanOut, AnIdleLaneJoinsANestedCall) {
  // In a fresh pool the outer call's one helper is the only other lane,
  // and it is busy when body 0 opens its nested call.  Body 1 returns at
  // once; its lane then joins the nested call.
  EXPECT_TRUE(in_forked_child([] {
    ThreadLog log;
    fan_out(2, 2, [&](std::size_t i) {
      if (i != 0) return;
      fan_out(16, 4, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        log.record();
      });
    });
    return log.take().size() == 2;
  }));
}

TEST(FanOut, ANestedFailureReachesTheOuterCaller) {
  EXPECT_THROW(fan_out(4, 4,
                       [&](std::size_t i) {
                         fan_out(8, 4, [&](std::size_t j) {
                           std::this_thread::sleep_for(
                               std::chrono::microseconds(200));
                           if (i == 2 && j == 5) {
                             throw std::runtime_error("nested 2/5");
                           }
                         });
                       }),
               std::runtime_error);
  // The pool is healthy afterwards.
  std::atomic<std::size_t> after{0};
  fan_out(16, 4, [&](std::size_t) {
    fan_out(4, 4, [&](std::size_t) { ++after; });
  });
  EXPECT_EQ(after.load(), 64u);
}

// ------------------------------------------------------- the searches' pin --

/// Folds `word` into the running digest `h`.
std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::uint64_t fold_double(std::uint64_t h, double value) {
  return fold(h, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t fold_rational(std::uint64_t h, const Rational& value) {
  const std::string text = value.to_string();
  for (const char ch : text) h = fold(h, static_cast<unsigned char>(ch));
  return fold(h, text.size());
}

std::uint64_t fold_order(std::uint64_t h,
                         const std::vector<std::size_t>& order) {
  h = fold(h, order.size());
  for (const std::size_t w : order) h = fold(h, w);
  return h;
}

/// Status, throughput and alpha bits, scenario and pivots of a solve.
std::uint64_t fold_solution(std::uint64_t h, const ScenarioSolutionD& s) {
  h = fold(h, s.lp_feasible);
  h = fold_double(h, s.throughput);
  for (const double a : s.alpha) h = fold_double(h, a);
  h = fold_order(fold_order(h, s.scenario.send_order), s.scenario.return_order);
  return fold(h, s.lp_pivots);
}

std::uint64_t fold_solution(std::uint64_t h, const ScenarioSolution& s) {
  h = fold(h, s.lp_feasible);
  h = fold_rational(h, s.throughput);
  for (const Rational& a : s.alpha) h = fold_rational(h, a);
  h = fold_order(fold_order(h, s.scenario.send_order), s.scenario.return_order);
  return fold(h, s.lp_pivots);
}

/// Latencies that make the subset scan's pruning floor move during the
/// walk (on linear costs the primed floor is already the optimum).
AffineCosts pin_latencies() {
  AffineCosts costs;
  costs.send_latency = 0.01;
  costs.compute_latency = 0.002;
  costs.return_latency = 0.005;
  return costs;
}

/// The brute-force spaces the pin walks on a p-worker platform: FIFO-only
/// and LIFO-only up to p = 6 (the exact search up to p = 5), the general
/// p!^2 space up to p = 4.
std::vector<BruteForceOptions> pin_spaces(std::size_t p) {
  std::vector<BruteForceOptions> spaces;
  if (p > 6) return spaces;
  BruteForceOptions fifo;
  fifo.fifo_only = true;
  BruteForceOptions lifo;
  lifo.lifo_only = true;
  spaces = {fifo, lifo};
  if (p <= 4) spaces.push_back(BruteForceOptions{});
  return spaces;
}

TEST(SearchPin, SearchesReturnThePinnedAnswersAndCounters) {
  // local_search_best_pair, both brute-force searches and the Fast affine
  // subset scan over 220 random_star platforms (p 2-12, z 0.5 and 2.5):
  // status, throughput and alpha bits, the scenario or participants, and
  // every counter.  The digest was recorded with the serial searches,
  // before they ran their parts on pool lanes, and re-recorded on the
  // pool-lane code without the warm-start counters.  On latency costs the
  // block-wise subset scan may prune fewer subsets than the serial walk
  // (a block sees only its own candidates' floors), so that one counter
  // stays out of the digest.
  const AffineCosts latencies = pin_latencies();
  Rng rng(2022);
  std::uint64_t digest = 0;
  std::size_t searches = 0;
  for (std::size_t p = 2; p <= 12; ++p) {
    for (const double z : {0.5, 2.5}) {
      for (std::size_t rep = 0; rep < 10; ++rep) {
        const StarPlatform platform = gen::random_star(p, rng, z);
        LocalSearchOptions local_options;
        local_options.seed = 1 + rep;
        const LocalSearchResult local =
            local_search_best_pair(platform, local_options);
        digest = fold_solution(digest, local.best);
        digest = fold(fold(digest, local.lp_evaluations), local.ascents);
        ++searches;
        for (const BruteForceOptions& space :
             rep < 3 ? pin_spaces(p) : std::vector<BruteForceOptions>{}) {
          if (p <= 5) {
            const BruteForceResult exact = brute_force_best(platform, space);
            digest = fold_solution(digest, exact.best);
            digest = fold(fold(digest, exact.scenarios_tried),
                          exact.budget_exhausted);
            ++searches;
          }
          const BruteForceResultD fast =
              brute_force_best_double(platform, space);
          digest = fold_solution(digest, fast.best);
          digest = fold(fold(digest, fast.scenarios_tried),
                        fast.budget_exhausted);
          ++searches;
        }
        for (const AffineCosts& costs : {AffineCosts{}, latencies}) {
          affine::AffineSubsetOptions subset_options;
          subset_options.use_fast_lp = true;
          const affine::AffineSelectionResult subset =
              affine::solve_affine_fifo_best_subset(platform, costs,
                                                    subset_options);
          digest = fold(digest, subset.feasible);
          digest = fold_solution(digest, subset.best);
          digest = fold_order(digest, subset.participants);
          for (const std::size_t counter :
               {subset.subsets_tried, subset.exact_resolves,
                subset.subsets_screened, subset.lp_pivots_total}) {
            digest = fold(digest, counter);
          }
          if (!costs.is_affine()) digest = fold(digest, subset.subsets_pruned);
          digest = fold(digest, subset.budget_exhausted);
          ++searches;
        }
      }
    }
  }
  EXPECT_EQ(searches, 804u);
  EXPECT_EQ(digest, 0xad16f9232be75675ULL);
}

/// Everything about a search outcome that does not depend on timing or on
/// the solving thread.
void expect_same_search(const BatchOutcome& a, const BatchOutcome& b) {
  const SolveResult& x = a.result;
  const SolveResult& y = b.result;
  EXPECT_EQ(a.solved, b.solved) << a.solver;
  EXPECT_EQ(a.ok, b.ok) << a.solver;
  EXPECT_EQ(x.solution.throughput, y.solution.throughput) << a.solver;
  EXPECT_EQ(x.solution.alpha, y.solution.alpha) << a.solver;
  EXPECT_EQ(x.solution.scenario.send_order, y.solution.scenario.send_order);
  EXPECT_EQ(x.solution.scenario.return_order,
            y.solution.scenario.return_order);
  EXPECT_EQ(x.solution.lp_pivots, y.solution.lp_pivots) << a.solver;
  EXPECT_EQ(x.participants, y.participants) << a.solver;
  EXPECT_EQ(x.scenarios_tried, y.scenarios_tried) << a.solver;
  EXPECT_EQ(x.lp_evaluations, y.lp_evaluations) << a.solver;
  EXPECT_EQ(x.ascents, y.ascents) << a.solver;
  EXPECT_EQ(x.lp_fallbacks, y.lp_fallbacks) << a.solver;
  EXPECT_EQ(x.subsets_pruned, y.subsets_pruned) << a.solver;
  EXPECT_EQ(x.subsets_screened, y.subsets_screened) << a.solver;
  EXPECT_EQ(x.budget_exhausted, y.budget_exhausted) << a.solver;
}

TEST(SearchPin, SearchesAnswerTheSameOnOneLaneAndOnFour) {
  // The searches through the registry, as a grid shard runs them: one
  // thread (every nested call inline) against four.
  const AffineCosts latencies = pin_latencies();
  Rng rng(2023);
  std::vector<BatchJob> jobs;
  for (const std::size_t p : {3u, 4u, 6u, 8u, 12u}) {
    for (const double z : {0.5, 2.5}) {
      SolveRequest request;
      request.platform = gen::random_star(p, rng, z);
      request.precision = Precision::Fast;
      request.seed = p;
      jobs.push_back({"local_search", request});
      for (const Precision precision : {Precision::Fast, Precision::Exact}) {
        if (p > (precision == Precision::Fast ? 6u : 4u)) continue;
        request.precision = precision;
        if (p <= 4) jobs.push_back({"brute_force", request});
        jobs.push_back({"brute_force_fifo", request});
        jobs.push_back({"brute_force_lifo", request});
      }
      request.precision = Precision::Fast;
      for (const AffineCosts& costs : {AffineCosts{}, latencies}) {
        request.costs = costs;
        jobs.push_back({"affine_subset", request});
      }
    }
  }
  const std::vector<BatchOutcome> one = solve_batch(jobs, 1);
  const std::vector<BatchOutcome> four = solve_batch(jobs, 4);
  ASSERT_EQ(one.size(), jobs.size());
  ASSERT_EQ(four.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(one[i].ok) << jobs[i].solver << ": " << one[i].error;
    expect_same_search(one[i], four[i]);
  }
}

}  // namespace
}  // namespace dlsched
