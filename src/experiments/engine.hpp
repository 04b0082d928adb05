// The experiment engine: compiles an `ExperimentSpec` into a job grid,
// executes it through the cached, sharded `solve_batch` pipeline, and
// streams machine-readable JSON (`BENCH_<spec>.json`) plus the figure-data
// CSV.  The engine is the single entry point behind `dlsched_bench` and
// the CLI's `bench` subcommand; adding a sweep means writing a spec, not a
// binary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "experiments/cache.hpp"
#include "experiments/spec.hpp"
#include "obs/trace.hpp"

namespace dlsched::experiments {

struct RunOptions {
  std::string out_json;    ///< BENCH_*.json path; empty = don't write
  std::string out_csv;     ///< figure-data CSV path; empty = don't write
  std::string cache_dir;   ///< result-cache directory; empty = no cache
  std::size_t threads = 0; ///< solve_batch pool size (0 = hardware)
  bool quick = false;      ///< shrink axes (CI smoke / tests)
  std::ostream* log = nullptr;  ///< tables + summary; null = std::cout

  // ----- distributed execution (grid specs only; a TCP coordinator owns
  // the shard board -- see service/coordinator.hpp) -----------------------
  std::string coordinator;       ///< "HOST:PORT" to listen on ("" with a
                                 ///<   local fleet: 127.0.0.1:0)
  std::size_t workers = 0;       ///< local TCP worker processes to fork
  bool autoscale = false;        ///< size the local fleet to the backlog
  std::size_t autoscale_max = 0; ///< autoscale cap (0 = hardware)
  double lease_ttl_seconds = 30.0;  ///< shard lease TTL before reassignment
  /// When set, a nonzero value drains the coordinator mid-run (the signal
  /// handler hook for SIGTERM/SIGINT graceful shutdown).
  const std::atomic<int>* stop_signal = nullptr;

  /// The grid runs through a coordinator instead of in-process.
  [[nodiscard]] bool distributed() const noexcept {
    return !coordinator.empty() || workers > 0 || autoscale;
  }

  // ----- cache hygiene ----------------------------------------------------
  std::uint64_t cache_max_bytes = 0;  ///< LRU-evict down to this (0 = off)

  // ----- observability ----------------------------------------------------
  /// `--trace PATH`: merge every process's spans into one Chrome
  /// trace_event JSON timeline (Perfetto-loadable).  Requires the caller
  /// to have enabled `obs::Tracer` before the run starts.
  std::string trace_path;
  /// When set, `wall_seconds` (and the root span) is measured from this
  /// instant instead of run_spec entry -- the driver stamps it before
  /// spec parsing so the reported wall time matches `/usr/bin/time`.
  std::optional<std::chrono::steady_clock::time_point> run_epoch;
};

/// What one spec run did.  `cache_hits`/`deduped` are the re-use counters
/// the acceptance criteria ask to see: a second run of an overlapping
/// sweep should report `cache_hits == jobs` and identical artifacts.
struct RunSummary {
  std::string spec;
  std::size_t jobs = 0;           ///< solver jobs the grid enumerated
  std::size_t cache_hits = 0;     ///< served from the result cache
  std::size_t deduped = 0;        ///< served by within-batch dedupe
  std::size_t solved = 0;         ///< actually executed solves
  std::size_t failures = 0;       ///< solve errors + validation failures
  std::size_t skipped = 0;        ///< solver inapplicable at a grid point
  std::size_t rows = 0;           ///< JSON rows emitted
  std::size_t shards = 0;         ///< grid shards planned
  std::size_t evicted = 0;        ///< cache entries LRU-evicted post-run
  double wall_seconds = 0.0;
  CacheStats cache;               ///< final cache counters (incl. stores)
  /// Per-phase wall attribution (traced runs only: span count and total
  /// span seconds per category, merged across every process).
  std::vector<obs::PhaseAttribution> phases;

  /// One-line human summary ("smoke: 16 jobs, 16 cache hits, ...").
  [[nodiscard]] std::string describe() const;
};

/// Runs one spec end to end.  Throws dlsched::Error on structural
/// problems (unknown generator/solver, unwritable outputs); individual
/// job failures are recorded in the summary and the rows instead.
[[nodiscard]] RunSummary run_spec(const ExperimentSpec& spec,
                                  const RunOptions& options);

/// Deterministic per-instance seed: a stable mix of the spec's seed block
/// and the grid coordinates, so overlapping specs (a subset of another's
/// axes) regenerate identical platforms and hit the shared cache.
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t base, std::size_t p,
                                          double z, std::size_t rep);

/// One cached solve outside a batch: cache lookup, else solve + validate +
/// store.  Shared by the special-shaped figure runners (fig14, fig09).
struct CachedRun {
  CachedSolve solve;
  bool from_cache = false;
};
[[nodiscard]] CachedRun run_solver_cached(ResultCache& cache,
                                          const std::string& solver,
                                          const SolveRequest& request);

}  // namespace dlsched::experiments
