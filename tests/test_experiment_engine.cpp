// Tests of the declarative experiment engine: spec parsing, the built-in
// spec registry, and the cached grid executor (a tiny 2-solver x 2-p spec
// run twice must hit the cache and emit byte-identical JSON).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "experiments/engine.hpp"
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
              ("dlsched_test_" + tag + "_" +
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

/// The satellite-task spec: 2 solvers x 2 worker counts, 1 rep each.
ExperimentSpec tiny_grid_spec() {
  ExperimentSpec spec;
  spec.name = "tiny";
  spec.title = "engine test grid";
  spec.figure = "test";
  spec.kind = SpecKind::Grid;
  spec.generator = "random_star";
  spec.workers = {3, 4};
  spec.z_values = {0.5};
  spec.repetitions = 1;
  spec.solvers = {"fifo_optimal", "lifo"};
  spec.baseline = "fifo_optimal";
  return spec;
}

TEST(ExperimentSpec, KindNamesRoundTrip) {
  for (const SpecKind kind :
       {SpecKind::Grid, SpecKind::Ensemble, SpecKind::Linearity,
        SpecKind::Trace, SpecKind::Participation, SpecKind::Selection,
        SpecKind::Multiround, SpecKind::Micro}) {
    EXPECT_EQ(kind_from_name(kind_name(kind)), kind);
  }
  EXPECT_THROW((void)kind_from_name("sideways"), Error);
}

TEST(ExperimentSpec, ParsesTheTomlSubset) {
  const ExperimentSpec spec = parse_spec_toml(
      "# a comment\n"
      "name = \"my_sweep\"\n"
      "title = \"satellites, with a comma\"  # trailing comment\n"
      "kind = \"grid\"\n"
      "generator = \"satellite\"\n"
      "workers = [4, 8]\n"
      "z = [0.5, 1.5]\n"
      "repetitions = 7\n"
      "seed = 99\n"
      "solvers = [\"fifo_optimal\", \"lifo\"]\n"
      "baseline = \"fifo_optimal\"\n"
      "precision = \"exact\"\n"
      "include_inc_w = false\n"
      "\n"
      "[generator.params]\n"
      "satellites = 2\n"
      "link_penalty = 30\n");
  EXPECT_EQ(spec.name, "my_sweep");
  EXPECT_EQ(spec.title, "satellites, with a comma");
  EXPECT_EQ(spec.kind, SpecKind::Grid);
  EXPECT_EQ(spec.generator, "satellite");
  EXPECT_EQ(spec.workers, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(spec.z_values, (std::vector<double>{0.5, 1.5}));
  EXPECT_EQ(spec.repetitions, 7u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"fifo_optimal", "lifo"}));
  EXPECT_EQ(spec.baseline, "fifo_optimal");
  EXPECT_EQ(spec.precision, Precision::Exact);
  EXPECT_FALSE(spec.include_inc_w);
  EXPECT_DOUBLE_EQ(spec.generator_params.at("satellites"), 2.0);
  EXPECT_DOUBLE_EQ(spec.generator_params.at("link_penalty"), 30.0);
  validate_spec(spec);
}

TEST(ExperimentSpec, UnknownKeyThrowsNamingTheKnownOnes) {
  try {
    (void)parse_spec_toml("name = \"x\"\nworker_count = 4\n");
    FAIL() << "expected dlsched::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker_count"), std::string::npos);
    EXPECT_NE(what.find("workers"), std::string::npos);  // the known list
    EXPECT_NE(what.find(":2"), std::string::npos);       // line number
  }
}

TEST(ExperimentSpec, ValidateRejectsUnknownGeneratorAndSolver) {
  ExperimentSpec spec = tiny_grid_spec();
  spec.generator = "warp_drive";
  EXPECT_THROW(validate_spec(spec), Error);
  spec = tiny_grid_spec();
  spec.solvers = {"quantum"};
  EXPECT_THROW(validate_spec(spec), Error);
}

TEST(ExperimentSpec, LoadSpecFileDefaultsNameToTheStem) {
  ScratchDir scratch("specfile");
  const std::string path = scratch.file("night_sweep.toml");
  std::ofstream(path) << "workers = [3]\nsolvers = [\"lifo\"]\n";
  const ExperimentSpec spec = load_spec_file(path);
  EXPECT_EQ(spec.name, "night_sweep");
  EXPECT_EQ(spec.workers, (std::vector<std::size_t>{3}));
}

TEST(SpecRegistry, EnumeratesEveryPaperFigureAndAblation) {
  std::vector<std::string> names;
  for (const ExperimentSpec& spec : builtin_specs()) {
    names.push_back(spec.name);
    validate_spec(spec);  // every built-in must be structurally sound
  }
  for (const char* expected :
       {"fig08", "fig09", "fig10", "fig11", "fig12", "fig13a", "fig13b",
        "fig14", "ablation_ordering", "ablation_local_search",
        "ablation_two_port", "ablation_selection", "ablation_multiround",
        "hetero_stress", "affine_surface", "micro_solvers",
        "micro_substrate", "smoke"}) {
    EXPECT_EQ(std::count(names.begin(), names.end(), expected), 1)
        << "missing spec: " << expected;
  }
  EXPECT_THROW((void)find_builtin_spec("fig99"), Error);
  EXPECT_TRUE(has_builtin_spec("smoke"));
}

TEST(ExperimentSpec, ParsesTheAffineLatencyAxes) {
  const ExperimentSpec spec = parse_spec_toml(
      "name = \"aff\"\n"
      "workers = [4]\n"
      "solvers = [\"affine_fifo\"]\n"
      "send_latencies = [0.0, 0.01]\n"
      "return_latencies = [0.005]\n"
      "compute_latency = 0.002\n");
  EXPECT_EQ(spec.send_latencies, (std::vector<double>{0.0, 0.01}));
  EXPECT_EQ(spec.return_latencies, (std::vector<double>{0.005}));
  EXPECT_DOUBLE_EQ(spec.compute_latency, 0.002);
  validate_spec(spec);

  ExperimentSpec bad = spec;
  bad.kind = SpecKind::Micro;
  EXPECT_THROW(validate_spec(bad), Error);  // latency axes are grid-only
}

TEST(ExperimentSpec, FilterSlicesAxesAndRejectsTypos) {
  ExperimentSpec spec = find_builtin_spec("affine_surface");
  apply_spec_filter(spec,
                    "p=4,send_latency=0.01,solver=affine_greedy|affine_fifo,"
                    "repetitions=1");
  EXPECT_EQ(spec.workers, (std::vector<std::size_t>{4}));
  EXPECT_EQ(spec.send_latencies, (std::vector<double>{0.01}));
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"affine_greedy", "affine_fifo"}));
  EXPECT_EQ(spec.repetitions, 1u);
  validate_spec(spec);

  ExperimentSpec fresh = find_builtin_spec("affine_surface");
  EXPECT_THROW(apply_spec_filter(fresh, "p=99"), Error);        // off-axis
  EXPECT_THROW(apply_spec_filter(fresh, "solver=warp"), Error);  // unknown
  EXPECT_THROW(apply_spec_filter(fresh, "banana=1"), Error);     // bad key
  EXPECT_THROW(apply_spec_filter(fresh, "p"), Error);            // no '='
  // The solver filter draws from the full registry when the spec lists
  // none (micro_solvers-style sweeps).
  ExperimentSpec open = find_builtin_spec("micro_solvers");
  apply_spec_filter(open, "solver=lifo");
  EXPECT_EQ(open.solvers, (std::vector<std::string>{"lifo"}));
}

TEST(ExperimentEngine, AffineSurfaceQuickRunReplaysWithinTolerance) {
  // The affine acceptance path end to end: a --quick affine_surface run
  // must solve cleanly, emit replay certificates for every affine row,
  // and a warm re-run must be all cache hits with identical bytes.
  ScratchDir scratch("affine");
  std::ostringstream log;
  RunOptions options;
  options.quick = true;
  options.out_json = scratch.file("cold.json");
  options.out_csv = scratch.file("cold.csv");
  options.cache_dir = scratch.dir() + "/cache";
  options.log = &log;
  const ExperimentSpec spec = find_builtin_spec("affine_surface");
  const RunSummary cold = run_spec(spec, options);
  EXPECT_EQ(cold.failures, 0u);
  EXPECT_GT(cold.rows, 0u);

  const std::string json = slurp(options.out_json);
  EXPECT_NE(json.find("\"send_latencies\""), std::string::npos);
  EXPECT_NE(json.find("\"participants\""), std::string::npos);
  // Every emitted replay error respects the acceptance tolerance.
  std::size_t replayed = 0;
  std::size_t at = 0;
  const std::string needle = "\"replay_rel_error\": ";
  while ((at = json.find(needle, at)) != std::string::npos) {
    at += needle.size();
    const double value = std::stod(json.substr(at));
    EXPECT_LE(value, 1e-9);
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);

  RunOptions warm = options;
  warm.out_json = scratch.file("warm.json");
  warm.out_csv = scratch.file("warm.csv");
  const RunSummary second = run_spec(spec, warm);
  EXPECT_EQ(second.cache_hits, second.jobs);
  EXPECT_EQ(slurp(options.out_json), slurp(warm.out_json));
  EXPECT_EQ(slurp(options.out_csv), slurp(warm.out_csv));
}

TEST(ExperimentEngine, InstanceSeedIsStableAndCoordinateSensitive) {
  EXPECT_EQ(instance_seed(1, 4, 0.5, 0), instance_seed(1, 4, 0.5, 0));
  EXPECT_NE(instance_seed(1, 4, 0.5, 0), instance_seed(1, 4, 0.5, 1));
  EXPECT_NE(instance_seed(1, 4, 0.5, 0), instance_seed(1, 5, 0.5, 0));
  EXPECT_NE(instance_seed(1, 4, 0.5, 0), instance_seed(2, 4, 0.5, 0));
  EXPECT_NE(instance_seed(1, 4, 0.5, 0), instance_seed(1, 4, 0.25, 0));
}

TEST(ExperimentEngine, SecondRunHitsTheCacheAndEmitsIdenticalJson) {
  ScratchDir scratch("cache");
  const ExperimentSpec spec = tiny_grid_spec();
  std::ostringstream log;

  RunOptions first;
  first.out_json = scratch.file("first.json");
  first.out_csv = scratch.file("first.csv");
  first.cache_dir = scratch.dir() + "/cache";
  first.threads = 2;
  first.log = &log;
  const RunSummary cold = run_spec(spec, first);
  EXPECT_EQ(cold.jobs, 4u);  // 2 solvers x 2 worker counts x 1 rep
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.solved, 4u);
  EXPECT_EQ(cold.failures, 0u);
  EXPECT_EQ(cold.cache.stores, 4u);

  RunOptions second = first;
  second.out_json = scratch.file("second.json");
  second.out_csv = scratch.file("second.csv");
  const RunSummary warm = run_spec(spec, second);
  EXPECT_EQ(warm.jobs, 4u);
  EXPECT_EQ(warm.cache_hits, 4u);  // every job served from the cache
  EXPECT_EQ(warm.solved, 0u);

  EXPECT_EQ(slurp(first.out_json), slurp(second.out_json));
  EXPECT_EQ(slurp(first.out_csv), slurp(second.out_csv));
  // The summary the user sees reports the hits.
  EXPECT_NE(log.str().find("4 cache hit(s)"), std::string::npos);

  // --cache-stats view: the inventory counts the stored entries and
  // reports the persisted counters of the warm (last) run.
  const CacheInventory inventory = ResultCache::inspect(first.cache_dir);
  EXPECT_TRUE(inventory.exists);
  EXPECT_EQ(inventory.entries, 4u);
  EXPECT_GT(inventory.total_bytes, 0u);
  EXPECT_TRUE(inventory.has_last_run);
  EXPECT_EQ(inventory.last_spec, spec.name);
  EXPECT_EQ(inventory.last_run.hits, 4u);
  EXPECT_EQ(inventory.last_run.misses, 0u);
  EXPECT_EQ(inventory.last_run.stores, 0u);
}

TEST(ExperimentEngine, InspectRoundTripsSpecNamesWithSpaces) {
  ScratchDir scratch("stats");
  ResultCache cache(scratch.dir() + "/cache");
  cache.stats.hits = 3;
  cache.stats.misses = 1;
  cache.stats.stores = 1;
  cache.write_last_run("my night sweep");  // file-stem names may have spaces
  const CacheInventory inventory = ResultCache::inspect(cache.directory());
  EXPECT_TRUE(inventory.has_last_run);
  EXPECT_EQ(inventory.last_spec, "my night sweep");
  EXPECT_EQ(inventory.last_run.hits, 3u);
  EXPECT_EQ(inventory.last_run.misses, 1u);
  EXPECT_EQ(inventory.last_run.stores, 1u);
}

TEST(ExperimentEngine, EvictToDropsLeastRecentlyUsedEntriesFirst) {
  ScratchDir scratch("evict");
  ResultCache cache(scratch.dir());
  Rng rng(3);
  std::vector<SolveRequest> requests(3);
  for (SolveRequest& request : requests) {
    request.platform = gen::random_star(4, rng, 0.5);
    (void)run_solver_cached(cache, "lifo", request);
  }
  // Age every entry, then touch the *first* one via a cache hit: it
  // becomes the most recently used and must survive the eviction.
  for (const auto& entry : fs::directory_iterator(scratch.dir())) {
    fs::last_write_time(entry.path(), fs::file_time_type::clock::now() -
                                          std::chrono::hours(2));
  }
  const CachedRun hit = run_solver_cached(cache, "lifo", requests[0]);
  EXPECT_TRUE(hit.from_cache);

  const CacheInventory before = ResultCache::inspect(scratch.dir());
  ASSERT_EQ(before.entries, 3u);
  const std::size_t evicted =
      cache.evict_to(before.total_bytes / 3 + 8);  // room for ~one entry
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(cache.stats.evicted, 2u);
  EXPECT_EQ(ResultCache::inspect(scratch.dir()).entries, 1u);
  // The survivor is the recently-hit entry, not an arbitrary one.
  const CachedRun survivor = run_solver_cached(cache, "lifo", requests[0]);
  EXPECT_TRUE(survivor.from_cache);

  // Under the budget already: nothing to do.
  EXPECT_EQ(cache.evict_to(1u << 30), 0u);
  // Disabled or unlimited caches never evict.
  ResultCache disabled;
  EXPECT_EQ(disabled.evict_to(1), 0u);
  EXPECT_EQ(cache.evict_to(0), 0u);
}

TEST(ExperimentEngine, RunSpecEnforcesCacheMaxBytesAndReportsEvictions) {
  ScratchDir scratch("maxbytes");
  std::ostringstream log;
  RunOptions options;
  options.cache_dir = scratch.dir() + "/cache";
  options.cache_max_bytes = 1;  // nothing fits: evict all but report all
  options.log = &log;
  const RunSummary summary = run_spec(tiny_grid_spec(), options);
  EXPECT_EQ(summary.solved, 4u);
  EXPECT_EQ(summary.evicted, 4u);
  EXPECT_NE(log.str().find("4 evicted"), std::string::npos);

  // --cache-stats surfaces the eviction count of the last run.
  const CacheInventory inventory = ResultCache::inspect(options.cache_dir);
  EXPECT_EQ(inventory.entries, 0u);
  ASSERT_TRUE(inventory.has_last_run);
  EXPECT_EQ(inventory.last_run.evicted, 4u);
}

TEST(ExperimentEngine, InspectOnAMissingDirectoryIsEmpty) {
  const CacheInventory inventory =
      ResultCache::inspect("/nonexistent/dlsched-cache");
  EXPECT_FALSE(inventory.exists);
  EXPECT_EQ(inventory.entries, 0u);
  EXPECT_FALSE(inventory.has_last_run);
}

TEST(ExperimentEngine, OverlappingSpecReusesTheSharedCache) {
  ScratchDir scratch("overlap");
  std::ostringstream log;
  RunOptions options;
  options.cache_dir = scratch.dir() + "/cache";
  options.log = &log;

  ExperimentSpec small = tiny_grid_spec();
  small.workers = {3};
  const RunSummary first = run_spec(small, options);
  EXPECT_EQ(first.solved, 2u);

  // A superset sweep: the p = 3 instances must come from the cache even
  // though the spec (and its axis list) differs.
  const RunSummary superset = run_spec(tiny_grid_spec(), options);
  EXPECT_EQ(superset.cache_hits, 2u);
  EXPECT_EQ(superset.solved, 2u);
}

TEST(ExperimentEngine, RunsWithoutArtifactsOrCache) {
  std::ostringstream log;
  RunOptions options;
  options.log = &log;
  const RunSummary summary = run_spec(tiny_grid_spec(), options);
  EXPECT_EQ(summary.jobs, 4u);
  EXPECT_EQ(summary.solved, 4u);
  EXPECT_EQ(summary.cache_hits, 0u);
  EXPECT_EQ(summary.cache.stores, 0u);
}

TEST(ExperimentEngine, EmittedJsonCarriesPerJobTimingRows) {
  ScratchDir scratch("rows");
  std::ostringstream log;
  RunOptions options;
  options.out_json = scratch.file("out.json");
  options.log = &log;
  const RunSummary summary = run_spec(tiny_grid_spec(), options);
  EXPECT_EQ(summary.rows, 4u);
  const std::string json = slurp(options.out_json);
  EXPECT_NE(json.find("\"spec\""), std::string::npos);
  EXPECT_NE(json.find("\"solver\": \"fifo_optimal\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput\""), std::string::npos);
  EXPECT_NE(json.find("\"validated\": true"), std::string::npos);
}

TEST(ExperimentEngine, QuickModeShrinksTheGrid) {
  ExperimentSpec spec = tiny_grid_spec();
  spec.repetitions = 10;
  std::ostringstream log;
  RunOptions options;
  options.quick = true;
  options.log = &log;
  const RunSummary summary = run_spec(spec, options);
  EXPECT_EQ(summary.jobs, 8u);  // repetitions capped at 2
}

TEST(ExperimentEngine, CachedRunHelperRoundTrips) {
  ScratchDir scratch("helper");
  ResultCache cache(scratch.dir() + "/cache");
  Rng rng(7);
  SolveRequest request;
  request.platform = gen::random_star(4, rng, 0.5);
  const CachedRun cold = run_solver_cached(cache, "lifo", request);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_TRUE(cold.solve.solved);
  const CachedRun warm = run_solver_cached(cache, "lifo", request);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_DOUBLE_EQ(warm.solve.throughput, cold.solve.throughput);
  EXPECT_EQ(warm.solve.send_order, cold.solve.send_order);
  // Bit-exact replay: the cached solution reconstructs the original.
  const ScenarioSolutionD replay = solution_from_cached(warm.solve);
  EXPECT_DOUBLE_EQ(replay.throughput, cold.solve.throughput);
  ASSERT_EQ(replay.alpha.size(), cold.solve.alpha.size());
  for (std::size_t i = 0; i < replay.alpha.size(); ++i) {
    EXPECT_DOUBLE_EQ(replay.alpha[i], cold.solve.alpha[i]);
  }
}

TEST(ExperimentEngine, CorruptCacheEntryDegradesToAMiss) {
  ScratchDir scratch("corrupt");
  ResultCache cache(scratch.dir());
  Rng rng(7);
  SolveRequest request;
  request.platform = gen::random_star(3, rng, 0.5);
  (void)run_solver_cached(cache, "lifo", request);
  // Truncate every entry file.
  for (const auto& entry : fs::directory_iterator(scratch.dir())) {
    std::ofstream(entry.path(), std::ios::trunc) << "garbage";
  }
  const CachedRun again = run_solver_cached(cache, "lifo", request);
  EXPECT_FALSE(again.from_cache);
  EXPECT_TRUE(again.solve.solved);
}

TEST(ExperimentEngine, AnEntryOfTheFormerVersionDegradesToAMiss) {
  // Version 6 entries carried the warm-start counters: relabelled as
  // such, a current entry must read as a miss and be solved again.
  ScratchDir scratch("former");
  ResultCache cache(scratch.dir());
  Rng rng(8);
  SolveRequest request;
  request.platform = gen::random_star(3, rng, 0.5);
  (void)run_solver_cached(cache, "lifo", request);
  ASSERT_TRUE(run_solver_cached(cache, "lifo", request).from_cache);
  const std::string current = "dlsched-cache 7\n";
  std::size_t relabelled = 0;
  for (const auto& entry : fs::directory_iterator(scratch.dir())) {
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (text.rfind(current, 0) != 0) continue;
    std::ofstream(entry.path(), std::ios::trunc)
        << "dlsched-cache 6\n" << text.substr(current.size());
    ++relabelled;
  }
  ASSERT_EQ(relabelled, 1u);
  const CachedRun again = run_solver_cached(cache, "lifo", request);
  EXPECT_FALSE(again.from_cache);
  EXPECT_TRUE(again.solve.solved);
}

}  // namespace
}  // namespace dlsched::experiments
