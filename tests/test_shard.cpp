// Tests of the sharded, multi-process experiment pipeline: deterministic
// shard planning (stable ids, union == full grid), fragment round-trips,
// a forked local TCP worker fleet producing byte-identical joined
// artifacts, and a dead fleet failing the run instead of hanging it.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "experiments/engine.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec_registry.hpp"
#include "util/error.hpp"

namespace dlsched::experiments {
namespace {

namespace fs = std::filesystem;

/// A scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("dlsched_shard_" + tag + "_" +
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
  spec.name = "shard_test";
  spec.title = "shard test grid";
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

TEST(ShardPlanner, SlicesByPZRepInPlannerOrder) {
  const std::vector<CompiledShard> shards = plan_shards(small_grid_spec());
  ASSERT_EQ(shards.size(), 8u);  // 2 p values x 2 z values x 2 reps
  // p outer, z inner, rep innermost -- the monolithic engine's loop order.
  const std::size_t expected_p[] = {3, 3, 3, 3, 4, 4, 4, 4};
  const double expected_z[] = {0.25, 0.25, 0.5, 0.5, 0.25, 0.25, 0.5, 0.5};
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].index, i);
    EXPECT_EQ(shards[i].p, expected_p[i]) << i;
    EXPECT_DOUBLE_EQ(*shards[i].z, expected_z[i]) << i;
    EXPECT_EQ(shards[i].rep, i % 2) << i;
    // No latency axes: exactly one cell, holding the 2 solver slots.
    ASSERT_EQ(shards[i].cells.size(), 1u);
    EXPECT_EQ(shards[i].cells[0].slots.size(), 2u);  // 2 solvers
    EXPECT_EQ(shards[i].cells[0].request.platform.size(), expected_p[i])
        << i;
  }
}

TEST(ShardPlanner, LatencyAxesExpandTheGridAndSetTheRequestCosts) {
  ExperimentSpec spec = small_grid_spec();
  spec.solvers = {"affine_fifo"};
  spec.z_values = {0.5};
  spec.repetitions = 1;
  spec.send_latencies = {0.0, 0.01};
  spec.return_latencies = {0.005};
  spec.compute_latency = 0.002;
  const std::vector<CompiledShard> shards = plan_shards(spec);
  // The latency axes fold inside the shards as cells: 2 p x 1 z x 1 rep
  // shards, each with 2 slat x 1 rlat cells.
  ASSERT_EQ(shards.size(), 2u);
  for (const CompiledShard& shard : shards) {
    ASSERT_EQ(shard.cells.size(), 2u);
    for (const GridCell& cell : shard.cells) {
      ASSERT_TRUE(cell.send_latency.has_value());
      ASSERT_TRUE(cell.return_latency.has_value());
      EXPECT_DOUBLE_EQ(cell.request.costs.send_latency,
                       *cell.send_latency);
      EXPECT_DOUBLE_EQ(cell.request.costs.return_latency, 0.005);
      EXPECT_DOUBLE_EQ(cell.request.costs.compute_latency, 0.002);
    }
    // The platform is shared across the latency surface (the latency
    // axes are outside the instance seed), so the latency effect is
    // isolated -- and the warm chain across cells is legitimate.
    EXPECT_DOUBLE_EQ(shard.cells[0].request.platform.worker(0).c,
                     shard.cells[1].request.platform.worker(0).c);
  }
  EXPECT_NE(shards[0].id, shards[1].id);
}

TEST(ShardPlanner, GeneratorLatencyDrawsScaleByTheAxisValue) {
  ExperimentSpec spec = small_grid_spec();
  spec.generator = "correlated";
  spec.generator_params = {{"lat_lo", 0.5}, {"lat_hi", 1.5}};
  spec.solvers = {"affine_fifo"};
  spec.workers = {4};
  spec.z_values = {0.5};
  spec.repetitions = 1;
  spec.send_latencies = {0.0, 0.02};
  const std::vector<CompiledShard> shards = plan_shards(spec);
  ASSERT_EQ(shards.size(), 1u);
  ASSERT_EQ(shards[0].cells.size(), 2u);
  // Axis value 0: the linear point, no per-worker overrides.
  EXPECT_TRUE(
      shards[0].cells[0].request.costs.send_latency_per_worker.empty());
  // Axis value 0.02: factors scale into absolute per-worker latencies.
  const auto& per =
      shards[0].cells[1].request.costs.send_latency_per_worker;
  ASSERT_EQ(per.size(), 4u);
  for (const double v : per) {
    EXPECT_GE(v, 0.02 * 0.5 - 1e-15);
    EXPECT_LE(v, 0.02 * 1.5 + 1e-15);
  }
}

TEST(ShardPlanner, IdsAreStableDistinctAndContentSensitive) {
  const ExperimentSpec spec = small_grid_spec();
  const std::vector<CompiledShard> first = plan_shards(spec);
  const std::vector<CompiledShard> second = plan_shards(spec);
  ASSERT_EQ(first.size(), second.size());
  std::set<std::string> ids;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);  // stable across runs
    EXPECT_EQ(first[i].id.size(), 32u);    // job_hash_hex-shaped
    ids.insert(first[i].id);
  }
  EXPECT_EQ(ids.size(), first.size());  // distinct per (p, z, rep) point
  EXPECT_EQ(plan_fingerprint(first), plan_fingerprint(second));

  // Any change to the grid's content changes the ids.
  ExperimentSpec reseeded = spec;
  reseeded.seed += 1;
  const std::vector<CompiledShard> other = plan_shards(reseeded);
  EXPECT_NE(first[0].id, other[0].id);
  EXPECT_NE(plan_fingerprint(first), plan_fingerprint(other));
}

TEST(ShardPlanner, UnionOfShardsIsTheFullGrid) {
  const ExperimentSpec spec = small_grid_spec();
  const std::vector<CompiledShard> shards = plan_shards(spec);
  // Every (solver, request) job identity appears exactly once across the
  // shard union: nothing lost, nothing duplicated by the slicing.
  std::set<std::string> job_hashes;
  std::size_t jobs = 0;
  for (const CompiledShard& shard : shards) {
    for (const GridCell& cell : shard.cells) {
      for (const GridSlot& slot : cell.slots) {
        job_hashes.insert(job_hash_hex(slot.solver, cell.request));
        ++jobs;
      }
    }
  }
  EXPECT_EQ(jobs, 16u);  // 2p x 2z x 2 reps x 2 solvers
  EXPECT_EQ(job_hashes.size(), jobs);

  // And a monolithic run over the same spec sees exactly these jobs.
  std::ostringstream log;
  RunOptions options;
  options.log = &log;
  const RunSummary summary = run_spec(spec, options);
  EXPECT_EQ(summary.jobs, jobs);
  EXPECT_EQ(summary.shards, shards.size());
}

TEST(ShardPlanner, SlotHashesAreTheJobHashesOfTheirCells) {
  // The planner's hash is reused as the cache file name and the batch
  // dedupe identity, so it must be exactly job_hash_hex of the cell's
  // request -- also on latency cells with per-worker overrides, and for
  // the warm-hinted copies execute_shard solves.
  ExperimentSpec latency = small_grid_spec();
  latency.generator = "correlated";
  latency.generator_params = {{"lat_lo", 0.5}, {"lat_hi", 1.5}};
  latency.solvers = {"affine_fifo", "affine_subset"};
  latency.send_latencies = {0.0, 0.02};
  latency.return_latencies = {0.01};
  std::size_t slots = 0;
  for (const ExperimentSpec& spec : {small_grid_spec(), latency}) {
    for (const CompiledShard& shard : plan_shards(spec)) {
      for (const GridCell& cell : shard.cells) {
        SolveRequest hinted = cell.request;
        hinted.warm_alpha.assign(cell.request.platform.size(), 0.5);
        for (const GridSlot& slot : cell.slots) {
          EXPECT_EQ(slot.job_hash, job_hash_hex(slot.solver, cell.request))
              << shard.id << ' ' << slot.solver;
          EXPECT_EQ(slot.job_hash, job_hash_hex(slot.solver, hinted));
          ++slots;
        }
      }
    }
  }
  EXPECT_EQ(slots, 16u + 2u * 2u * 2u * 2u * 2u);
}

TEST(ShardPlanner, BuiltinGridFingerprintsArePinned) {
  // Shard ids and job hashes feed cache file names and every BENCH
  // artifact, so a faster planner must reproduce them byte for byte.  The
  // fingerprints were recorded with the planner that serialized a cell's
  // request once per solver.
  const std::vector<std::pair<std::string, std::string>> pinned = {
      {"smoke", "e17c9472f19800560892b8c07109ed92"},
      {"micro_solvers", "a5575ac47af947b899cd259bf55cf5ee"},
      {"affine_surface", "84f896aae096974e1ad2c4d354a55844"},
  };
  for (const auto& [name, fingerprint] : pinned) {
    EXPECT_EQ(plan_fingerprint(plan_shards(find_builtin_spec(name))),
              fingerprint)
        << name;
  }
}

TEST(ShardPlanner, RejectsNonGridKinds) {
  EXPECT_THROW((void)plan_shards(find_builtin_spec("fig10")), Error);
}

TEST(ShardResultIO, FragmentRoundTripsBitExactly) {
  ShardResult result;
  result.id = "0123456789abcdef0123456789abcdef";
  result.index = 3;
  result.jobs = 2;
  result.cache_hits = 1;
  result.solved = 1;
  result.cache.stores = 1;
  ShardRow row;
  row.json = "{\"solver\": \"lifo\", \"p\": 4}";
  row.solved = true;
  row.validated = true;
  row.p = 4;
  row.z = 0.1;  // not exactly representable: bit pattern must survive
  row.send_latency = 0.01;
  row.return_latency = 0.005;
  row.solver = "lifo";
  row.throughput = 1.0 / 3.0;
  row.wall_seconds = 2.5e-5;
  row.has_ratio = true;
  row.ratio = 0.999999999999999;
  result.rows.push_back(row);
  ShardRow failed;
  failed.json = "{\"solved\": false}";
  failed.solver = "fifo_optimal";
  failed.p = 4;
  result.rows.push_back(failed);

  const std::string text = serialize_shard_result(result);
  const std::optional<ShardResult> parsed = parse_shard_result(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, result.id);
  EXPECT_EQ(parsed->index, 3u);
  EXPECT_EQ(parsed->jobs, 2u);
  EXPECT_EQ(parsed->cache_hits, 1u);
  EXPECT_EQ(parsed->cache.stores, 1u);
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_EQ(parsed->rows[0].json, row.json);
  ASSERT_TRUE(parsed->rows[0].z.has_value());
  EXPECT_EQ(*parsed->rows[0].z, 0.1);  // exact: travels by bit pattern
  ASSERT_TRUE(parsed->rows[0].send_latency.has_value());
  EXPECT_EQ(*parsed->rows[0].send_latency, 0.01);
  ASSERT_TRUE(parsed->rows[0].return_latency.has_value());
  EXPECT_EQ(*parsed->rows[0].return_latency, 0.005);
  EXPECT_FALSE(parsed->rows[1].send_latency.has_value());
  EXPECT_EQ(parsed->rows[0].throughput, 1.0 / 3.0);
  EXPECT_EQ(parsed->rows[0].wall_seconds, 2.5e-5);
  EXPECT_TRUE(parsed->rows[0].has_ratio);
  EXPECT_EQ(parsed->rows[0].ratio, 0.999999999999999);
  EXPECT_FALSE(parsed->rows[1].solved);
  EXPECT_FALSE(parsed->rows[1].z.has_value());

  EXPECT_FALSE(parse_shard_result("garbage").has_value());
  EXPECT_FALSE(
      parse_shard_result(text.substr(0, text.size() / 2)).has_value());
}

TEST(ShardScheduler, ForkedWorkersJoinByteIdenticalToSingleProcess) {
  ScratchDir scratch("workers");
  const ExperimentSpec spec = small_grid_spec();
  std::ostringstream log;

  // Single-process reference over a shared cache...
  RunOptions single;
  single.out_json = scratch.file("sp.json");
  single.out_csv = scratch.file("sp.csv");
  single.cache_dir = scratch.dir() + "/cache";
  single.threads = 1;
  single.log = &log;
  const RunSummary sp = run_spec(spec, single);
  EXPECT_EQ(sp.jobs, 16u);
  EXPECT_EQ(sp.solved, 16u);
  EXPECT_EQ(sp.failures, 0u);
  EXPECT_EQ(sp.shards, 8u);

  // ...then a fleet of 3 forked TCP workers against the same cache: the
  // joined artifact replays the cached numbers byte for byte.
  RunOptions multi = single;
  multi.out_json = scratch.file("mp.json");
  multi.out_csv = scratch.file("mp.csv");
  multi.workers = 3;
  const RunSummary mp = run_spec(spec, multi);
  EXPECT_EQ(mp.jobs, 16u);
  EXPECT_EQ(mp.cache_hits, 16u);
  EXPECT_EQ(mp.solved, 0u);
  EXPECT_EQ(mp.shards, 8u);
  EXPECT_EQ(slurp(single.out_json), slurp(multi.out_json));
  EXPECT_EQ(slurp(single.out_csv), slurp(multi.out_csv));
}

TEST(ShardScheduler, ForkedWorkersSolveFromAColdCache) {
  ScratchDir scratch("coldworkers");
  const ExperimentSpec spec = small_grid_spec();
  std::ostringstream log;
  RunOptions options;
  options.out_json = scratch.file("mp.json");
  options.cache_dir = scratch.dir() + "/cache";
  options.threads = 1;
  options.workers = 3;
  options.log = &log;
  const RunSummary summary = run_spec(spec, options);
  EXPECT_EQ(summary.jobs, 16u);
  EXPECT_EQ(summary.cache_hits, 0u);
  EXPECT_EQ(summary.solved, 16u);  // the workers really solved the grid
  EXPECT_EQ(summary.failures, 0u);
  EXPECT_EQ(summary.rows, 16u);
  // Every job's record was shipped back into the coordinator's cache.
  const CacheInventory inventory =
      ResultCache::inspect(options.cache_dir);
  EXPECT_EQ(inventory.entries, 16u);
}

TEST(ShardScheduler, DeadLocalFleetFailsTheRunInsteadOfHanging) {
  ScratchDir scratch("deadfleet");
  // A TMPDIR that is a regular file: every worker dies creating its
  // scratch cache, before it finishes a single shard.
  const std::string not_a_dir = scratch.file("tmpdir");
  std::ofstream(not_a_dir) << "not a directory\n";
  const std::string out_json = scratch.file("mp.json");

  // run_spec runs in a forked child, so a hang fails this test at the
  // deadline below instead of stalling the suite.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    int code = 1;
    try {
      ::setenv("TMPDIR", not_a_dir.c_str(), 1);
      std::ostringstream log;
      RunOptions options;
      options.out_json = out_json;
      options.cache_dir = scratch.dir() + "/cache";
      options.threads = 1;
      options.workers = 2;
      options.log = &log;
      (void)run_spec(small_grid_spec(), options);
    } catch (const Error& e) {
      const std::string what = e.what();
      code = what.find("0/8 shard(s) done") != std::string::npos ? 0 : 2;
    } catch (...) {
      code = 3;
    }
    ::_exit(code);
  }

  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (::waitpid(child, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(child, SIGKILL);
      (void)::waitpid(child, &status, 0);
      FAIL() << "run_spec still waits on a fleet that has exited";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: run_spec returned, 2: error without the done/total count, "
         "3: not a dlsched::Error";
  EXPECT_FALSE(fs::exists(out_json));  // no header-only artifact stub
}

TEST(ShardScheduler, DistributedFlagsRejectNonGridAndCachelessRuns) {
  std::ostringstream log;
  RunOptions options;
  options.log = &log;
  options.workers = 2;  // no cache dir
  EXPECT_THROW((void)run_spec(small_grid_spec(), options), Error);

  RunOptions ensemble_options;
  ensemble_options.log = &log;
  ensemble_options.cache_dir = "/tmp/unused-cache-dir";
  ensemble_options.workers = 2;
  EXPECT_THROW((void)run_spec(find_builtin_spec("fig10"), ensemble_options),
               Error);
}

}  // namespace
}  // namespace dlsched::experiments
