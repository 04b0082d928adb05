// Shard planning for the experiment grid.
//
// A Grid spec's sweep is embarrassingly parallel across its (p, z) axis
// points; this module slices the compiled grid into one shard per
// (p, z, repetition) point so rows stream out as slices complete instead
// of after one monolithic batch, and so worker processes can lease slices
// from the cluster coordinator (service/coordinator.hpp) with weights
// fine enough to balance.  Shard ids are stable
// content-derived hashes built from the `job_hash_hex` identities of the
// jobs inside a shard: every process that plans the same spec computes the
// same ids with no coordination, and any change to the spec's axes, seed,
// generator or solver set changes them.
//
// `ShardResult` is everything one executed shard contributes to the final
// artifacts -- rendered JSON rows plus the aggregation inputs for the
// figure CSV -- and serializes to a fragment (the FragmentPush body), so a
// deterministic join (`ShardAssembler` fed in planner order) reassembles
// out-of-order shard outputs into a `BENCH_<spec>.json` byte-identical to
// a single-process run over the same result cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "experiments/cache.hpp"
#include "experiments/emitter.hpp"
#include "experiments/spec.hpp"
#include "util/stats.hpp"

namespace dlsched::experiments {

struct RunSummary;

/// One solver cell of a compiled shard (all cells share the shard's
/// generated problem instance).
struct GridSlot {
  std::optional<double> z;   ///< z-axis value, when the axis exists
  std::size_t rep = 0;
  std::uint64_t seed = 0;
  std::string solver;
  /// `job_hash_hex(solver, cell request)`, computed once by the planner
  /// (it is part of the shard id) and reused as the cache file name and
  /// the batch dedupe identity.
  std::string job_hash;
};

/// One latency point of a shard: the (send, return) latency coordinates
/// applied to the shard's generated instance, plus every applicable solver
/// job on it.  All cells of one shard share the generated platform, which
/// is what makes the warm-start chain across them legitimate:
/// `execute_shard` walks the cells in planner order and seeds each
/// solver's request with the same solver's previous-cell alpha
/// (`SolveRequest::warm_alpha`, advisory and excluded from cache keys).
/// Specs without latency axes compile to exactly one cell per shard.
struct GridCell {
  std::optional<double> send_latency;    ///< affine send-latency coordinate
  std::optional<double> return_latency;  ///< affine return-latency coordinate
  SolveRequest request;           ///< the cell's problem instance
  std::vector<GridSlot> slots;
  std::size_t skipped = 0;        ///< inapplicable solver cells
};

/// One slice of the compiled grid -- a (p, z) point, split per repetition
/// so shard weights stay stealable when one platform size dominates the
/// spec: the generated problem instance plus its latency cells.  The
/// latency axes fold *inside* the shard (one platform spans the whole
/// latency surface) so adjacent cells differ only in the latency
/// constants -- structurally adjacent LPs, which the warm-start chain
/// exploits.  The chain is deliberately intra-shard only: shards are
/// stolen and executed out of order across processes, so any cross-shard
/// seeding would make artifacts depend on the steal schedule.
struct CompiledShard {
  std::size_t index = 0;          ///< planner order == emission order
  std::string id;                 ///< stable 32-hex shard id
  std::optional<std::size_t> p;   ///< p coordinate (absent axis: nullopt)
  std::optional<double> z;        ///< z coordinate (absent axis: nullopt)
  std::size_t rep = 0;            ///< repetition coordinate
  std::vector<GridCell> cells;    ///< latency points, planner order
};

/// The solver set a Grid spec runs (`spec.solvers`, or every registered
/// solver when empty).
[[nodiscard]] std::vector<std::string> grid_solvers(const ExperimentSpec& spec);

/// Deterministically compiles a Grid spec into (p, z, rep)-keyed shards
/// (p outer, z inner, rep innermost), each holding its latency cells in
/// (send, return) nested order, so concatenating shard outputs in planner
/// order reproduces a single-process run's artifacts byte for byte.
/// Throws for non-Grid kinds.
[[nodiscard]] std::vector<CompiledShard> plan_shards(
    const ExperimentSpec& spec);

/// Fingerprint of a whole plan (hash over the shard ids): a worker checks
/// its own plan of a shipped spec against the coordinator's, so runs with
/// different axes, seeds or `--quick` states never mix fragments.
[[nodiscard]] std::string plan_fingerprint(
    const std::vector<CompiledShard>& shards);

/// One emitted row plus the aggregation inputs the figure CSV needs.
struct ShardRow {
  std::string json;          ///< rendered BENCH row object
  bool solved = false;
  bool validated = false;
  std::size_t p = 0;         ///< platform size (the table's p column)
  std::optional<double> z;
  std::optional<double> send_latency;    ///< affine axes, when present
  std::optional<double> return_latency;
  std::string solver;
  double throughput = 0.0;
  double wall_seconds = 0.0;
  bool has_ratio = false;    ///< baseline present and solved on instance
  double ratio = 0.0;        ///< throughput / baseline throughput
};

/// Everything one executed shard contributes to the joined artifacts.
struct ShardResult {
  std::string id;
  std::size_t index = 0;
  std::size_t jobs = 0;
  std::size_t cache_hits = 0;
  std::size_t deduped = 0;
  std::size_t solved = 0;
  std::size_t failures = 0;
  std::size_t skipped = 0;
  CacheStats cache;          ///< this shard's delta of the worker's cache
  std::vector<ShardRow> rows;
};

/// Executes one shard: per cell, a cache pass, a thread-pooled
/// `solve_batch` over the misses, and row rendering.  Cells run in order;
/// each solver's solved alpha is carried into its next-cell request as a
/// warm-start hint.  The hint is taken from the cached record on a hit
/// and from the fresh solution on a miss -- bit-identical either way, so
/// artifacts do not depend on the cache state.  Completed jobs are stored
/// into the cache as they finish (via the batch progress hook).
[[nodiscard]] ShardResult execute_shard(const ExperimentSpec& spec,
                                        const CompiledShard& shard,
                                        ResultCache& cache,
                                        std::size_t threads);

/// Serializes a shard result as a fragment body (doubles by bit pattern:
/// a join replays the producing run's numbers exactly).
[[nodiscard]] std::string serialize_shard_result(const ShardResult& result);

/// Parses a fragment; returns nullopt (never throws) on any corruption so
/// the coordinator refuses a torn or foreign push instead of failing.
[[nodiscard]] std::optional<ShardResult> parse_shard_result(
    const std::string& text);

/// Deterministic merge: consumes shard results strictly in planner order,
/// streams their rows into the BENCH JSON writer, accumulates the figure
/// groups and the run counters, and on `finish` renders the log table and
/// the CSV -- the one emission path shared by the in-process streaming
/// run and the coordinator, which is what makes their artifacts
/// byte-identical.
class ShardAssembler {
 public:
  ShardAssembler(BenchJsonWriter* json, std::ostream* csv,
                 RunSummary& summary, std::ostream& log);

  void consume(const ShardResult& result);
  void finish();

 private:
  struct Group {
    std::size_t p;
    std::optional<double> z;
    std::optional<double> send_latency;
    std::optional<double> return_latency;
    std::string solver;
    Accumulator throughput, ratio, wall;
  };

  BenchJsonWriter* json_;
  std::ostream* csv_;
  RunSummary& summary_;
  std::ostream& log_;
  std::size_t next_index_ = 0;
  std::vector<Group> groups_;
  std::map<std::string, std::size_t> group_index_;
};

}  // namespace dlsched::experiments
