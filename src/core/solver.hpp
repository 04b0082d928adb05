// Unified solver interface over every scheduling algorithm in src/core.
//
// The paper is fundamentally a *comparison* of solution methodologies --
// optimal FIFO/LIFO, exhaustive search, ordering heuristics, local search,
// multi-round dispatch -- evaluated on the same star platform.  This module
// makes that comparison an architectural fact: each algorithm is wrapped in
// a `Solver` adapter registered by name in the `SolverRegistry`, every
// consumer (CLI, benches, figure sweeps, tests) selects back-ends by name,
// and `solve_batch` fans a set of jobs across a persistent pool with every
// produced schedule re-checked by the independent validator.
//
// Adding an algorithm means registering one adapter; no consumer changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/affine.hpp"
#include "core/heuristics.hpp"
#include "core/scenario.hpp"
#include "core/scenario_lp.hpp"
#include "platform/star_platform.hpp"
#include "schedule/schedule.hpp"
#include "schedule/validator.hpp"

namespace dlsched {

/// Numeric back-end for a solve.  `Exact` keeps rational arithmetic end to
/// end (theorem-level guarantees); `Fast` allows the double-precision LP
/// where one exists (ensemble sweeps, large platforms).
enum class Precision { Exact, Fast };

/// One problem instance plus solve options, shared by every solver.
/// Solvers ignore the options that do not apply to them (a closed form has
/// no use for `time_budget_seconds`) and honour the ones that do.
struct SolveRequest {
  StarPlatform platform;

  /// Explicit communication orders for the `scenario_lp` solver; other
  /// solvers choose their own scenario and ignore this.
  std::optional<Scenario> scenario;

  /// Explicit participant set for the affine solvers (empty = all workers).
  std::vector<std::size_t> participants;

  bool two_port = false;           ///< drop the one-port row where supported
  AffineCosts costs;               ///< affine latencies (zero = linear model)
  Precision precision = Precision::Exact;
  double horizon = 1.0;            ///< schedule realization horizon T

  std::uint64_t seed = 1;          ///< randomized solvers (random_fifo, ...)
  double time_budget_seconds = 0.0;  ///< 0 = unlimited (search solvers)
  std::size_t max_workers_brute = 7;   ///< p!^2 guard (brute force)
  std::size_t max_workers_subset = 12; ///< 2^p guard (affine subsets)
  std::size_t local_search_restarts = 3;
  std::size_t local_search_max_steps = 200;
  std::size_t max_rounds = 8;      ///< multiround sweep upper bound
};

/// What every solver returns: the solution in the common `ScenarioSolution`
/// shape, a realized schedule, and provenance/diagnostics.
struct SolveResult {
  std::string solver;              ///< registry name that produced this

  /// Loads/throughput, platform-indexed.  Under `Precision::Fast` the
  /// rationals are lossless conversions of the double LP solution (so
  /// `.to_double()` round-trips bit-exactly).
  ScenarioSolution solution;

  /// Realized schedule for `request.horizon`.  Feasible on
  /// `schedule_platform` -- usually the request's platform, but e.g. the
  /// no-return model strips the d terms.
  Schedule schedule;
  StarPlatform schedule_platform;

  // ----- provenance -------------------------------------------------------
  bool provably_optimal = false;   ///< a theorem covers this instance
  bool mirrored = false;           ///< solved through the z > 1 mirror
  bool used_two_port = false;      ///< solution is for the two-port model
  bool exact = true;               ///< rational (not double) arithmetic

  /// Secondary throughput where the algorithm produces one: the one-port
  /// throughput after the Figure 7 transformation (`two_port_fifo`) or the
  /// two-port upper bound of Theorem 2 (`bus_closed_form`).
  std::optional<Rational> alt_throughput;
  bool comm_limited = false;       ///< Theorem 2: 1/(c+d) branch taken

  /// Chosen participant set (sorted worker indices) for selection-style
  /// solvers -- the affine subset / greedy / local-search family.  Empty
  /// for solvers whose enrolment is implied by alpha > 0.
  std::vector<std::size_t> participants;

  /// Affine DES-replay check (affine/replay.hpp): the realized timeline
  /// re-executed on the event engine must land on the LP horizon.
  bool replayed = false;
  double replay_makespan = 0.0;    ///< simulated completion time
  double replay_rel_error = 0.0;   ///< |makespan - horizon| / horizon

  // ----- search / evaluation statistics -----------------------------------
  std::size_t scenarios_tried = 0; ///< brute force / affine subset count
  std::size_t lp_evaluations = 0;  ///< local search oracle calls

  /// LPs re-solved with the exact engine under `Precision::Fast`: the
  /// margin set of a fast-screened selection scan, or a validated-double
  /// result that failed validation / replay and fell back to exact.
  std::size_t lp_fallbacks = 0;

  /// Subset candidates skipped by the monotone throughput upper bound in
  /// the affine subset scan (provably unable to beat the incumbent).
  std::size_t subsets_pruned = 0;
  /// Subset candidates skipped by the inline double-LP margin screen
  /// after surviving the bound (affine subset scan).
  std::size_t subsets_screened = 0;

  /// Thread-local limb-arena activity during this solve (filled by
  /// `SolverRegistry::run`): big-integer buffer requests, and how many
  /// were served from the recycled pool instead of the allocator.
  std::uint64_t arena_acquires = 0;
  std::uint64_t arena_pool_hits = 0;
  std::size_t ascents = 0;         ///< local search accepted steps
  std::size_t best_rounds = 0;     ///< multiround: optimal R found
  double multiround_makespan = 0.0;
  bool budget_exhausted = false;   ///< stopped early on time_budget_seconds

  double wall_seconds = 0.0;       ///< filled by SolverRegistry::run
  std::string notes;               ///< free-form diagnostics

  [[nodiscard]] double throughput() const {
    return solution.throughput.to_double();
  }

  /// The solution reshaped for double-precision consumers (sweeps, DES
  /// feeds).  Lossless: under `Precision::Fast` this round-trips the
  /// double LP's numbers bit-exactly.
  [[nodiscard]] ScenarioSolutionD solution_double() const;
};

/// Abstract solution methodology.  Implementations are stateless; options
/// travel in the request.
class Solver {
 public:
  virtual ~Solver() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;
  /// Paper anchor (theorem / section / reference) this method implements.
  [[nodiscard]] virtual std::string paper_ref() const = 0;

  /// Whether this method can handle the request (e.g. Theorem 2 requires a
  /// bus).  On false, `why` (if given) receives a human-readable reason.
  [[nodiscard]] virtual bool applicable(const SolveRequest& request,
                                        std::string* why = nullptr) const;

  /// Solves the request.  Throws `dlsched::Error` on precondition
  /// violations (including inapplicable requests).
  [[nodiscard]] virtual SolveResult solve(const SolveRequest& request) const = 0;
};

using SolverFactory = std::function<std::unique_ptr<Solver>()>;

/// Descriptive registry entry (what `--list-solvers` prints).
struct SolverInfo {
  std::string name;
  std::string description;
  std::string paper_ref;
};

/// Name -> factory map over all registered solution methodologies.  The
/// process-wide instance comes pre-populated with every algorithm in
/// src/core; library users may register additional back-ends.
class SolverRegistry {
 public:
  /// The process-wide registry (builtins registered on first use).
  static SolverRegistry& instance();

  /// Registers a factory.  Throws on duplicate names.
  void add(SolverFactory factory);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Instantiates a solver.  Throws with the list of known names on miss.
  [[nodiscard]] std::unique_ptr<Solver> create(const std::string& name) const;
  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Name/description/paper-ref rows, sorted by name.
  [[nodiscard]] std::vector<SolverInfo> infos() const;

  /// create + solve + wall-clock stamping in one call -- the main entry
  /// point for consumers.
  [[nodiscard]] SolveResult run(const std::string& name,
                                const SolveRequest& request) const;

  /// An empty registry (for tests); the process-wide instance is usually
  /// what you want.
  SolverRegistry() = default;

 private:
  std::vector<std::pair<std::string, SolverFactory>> factories_;
};

// ---------------------------------------------------------------- hashing --

/// Canonical byte-exact serialization of a request: every field that can
/// influence any solver's output, with doubles rendered by bit pattern.
/// Two requests with equal keys are interchangeable for *every* registered
/// solver; worker names are excluded (they never affect solving).
[[nodiscard]] std::string request_canonical_key(const SolveRequest& request);

/// FNV-1a over the canonical key.
[[nodiscard]] std::uint64_t request_hash(const SolveRequest& request);

/// The canonical identity of one (solver, request) job: the solver name
/// prepended to `request_canonical_key`.  Serializing the platform is the
/// expensive part -- callers that need both the key and its hash should
/// build the key once and hash it with `job_hash_from_key`.
[[nodiscard]] std::string job_canonical_key(const std::string& solver,
                                            const SolveRequest& request);

/// 128-bit hash of a `job_canonical_key` as 32 hex chars -- the
/// experiment engine's cache-file name.  Collisions are guarded against
/// by storing the canonical key alongside cached values.
[[nodiscard]] std::string job_hash_from_key(std::string_view canonical_key);

/// `job_hash_from_key(job_canonical_key(solver, request))`.
[[nodiscard]] std::string job_hash_hex(const std::string& solver,
                                       const SolveRequest& request);

// --------------------------------------------------------------- batching --

/// One unit of batch work: a solver name plus its request.
struct BatchJob {
  std::string solver;
  SolveRequest request;
};

/// Non-owning batch job: the experiment grid stores each distinct request
/// once and fans solver names over pointers, so enqueueing a p x z x seed x
/// solver grid never copies a platform.
struct BatchJobView {
  std::string solver;
  const SolveRequest* request = nullptr;
  /// `job_hash_hex(solver, *request)` when the caller already holds it
  /// (the planner, the cache lookup, the daemon's admission); empty makes
  /// `solve_batch` compute it.  It must be that exact value: the batch
  /// dedupes on it.  Viewed, not owned -- it must outlive the call.
  std::string_view job_hash;
};

/// Outcome of one batch job.  `ok` means the solve completed and the
/// schedule passed the independent validator.
struct BatchOutcome {
  std::string solver;
  bool solved = false;             ///< solve() returned without throwing
  bool ok = false;                 ///< solved and validator-clean
  std::string error;               ///< exception text when !solved
  SolveResult result;              ///< valid when solved
  ValidationReport validation;     ///< valid when solved
  /// True when this job was byte-identical (same request hash + solver) to
  /// an earlier job in the batch: the outcome is a copy and neither the
  /// solver nor the validator ran again for it.
  bool deduped = false;
  /// True when the job never ran because a progress hook cancelled the
  /// batch; `solved` is false and `error` says so.
  bool cancelled = false;
  double validate_seconds = 0.0;   ///< validator wall time (0 when deduped)
};

/// Progress report delivered after each *primary* (non-deduped) batch job
/// finishes.  `completed`/`total` count primary jobs only, so `completed ==
/// total` on the last invocation.  A deduped job gets no report of its
/// own: its outcome is the primary's, copied when the batch returns.
struct BatchProgress {
  std::size_t job_index = 0;   ///< index of the just-finished job
  std::size_t completed = 0;   ///< primary jobs finished so far
  std::size_t total = 0;       ///< primary jobs in the batch
};

/// Optional per-job completion hook for `solve_batch`: invoked serially
/// (never concurrently, under an internal mutex) from the batch lanes after
/// each primary job's outcome -- including validation -- is final.  The
/// experiment layer uses it to checkpoint finished results into the shared
/// result cache and refresh work-stealing claim heartbeats mid-shard; the
/// service daemon, whose batches hold distinct jobs, answers each job's
/// requests from it the moment the job is done.
/// Returning false cancels the batch: jobs not yet started are marked
/// `cancelled` instead of being run (in-flight jobs still finish).
using BatchProgressHook =
    std::function<bool(const BatchProgress&, const BatchOutcome&)>;

/// Runs every job on `threads` lanes (0 = hardware concurrency, capped at
/// the number of distinct jobs) and validates each produced schedule
/// through schedule/validator.  The lanes are the calling thread plus
/// helpers from one process-wide pool of parked threads (util/fan_out.hpp):
/// the pool grows lazily to the largest lane count any caller asks for and
/// is shared by concurrent callers, and a caller always works through its
/// own jobs, so a batch completes even when every helper is busy elsewhere.
/// One lane runs the jobs inline.  No helper is alive across `fork()`:
/// they are joined before it and respawn on demand in both processes.
/// Outcomes are returned in job order regardless of lane interleaving; a
/// throwing job yields an outcome with `solved == false` instead of
/// aborting the batch.  Byte-identical (request, solver) jobs are solved
/// and validated once; duplicates receive a copy of the outcome with
/// `deduped` set.  `progress`, when given, is called serially after each
/// primary job and may cancel the remainder of the batch (see
/// `BatchProgressHook`); an exception it throws ends the batch and
/// propagates to the caller.
[[nodiscard]] std::vector<BatchOutcome> solve_batch(
    std::span<const BatchJob> jobs, std::size_t threads = 0,
    const BatchProgressHook& progress = {});

/// The non-owning primitive the owning overload and the experiment grid
/// are built on.  Every `request` pointer must stay valid for the call.
[[nodiscard]] std::vector<BatchOutcome> solve_batch(
    std::span<const BatchJobView> jobs, std::size_t threads = 0,
    const BatchProgressHook& progress = {});

/// Portfolio convenience: one request across many solvers.  Inapplicable
/// solvers are skipped (not errors) when `skip_inapplicable`.
[[nodiscard]] std::vector<BatchOutcome> solve_batch_across_solvers(
    const SolveRequest& request, std::span<const std::string> solvers,
    std::size_t threads = 0, bool skip_inapplicable = true);

/// Sweep convenience: one solver across many platforms (all other request
/// fields shared).
[[nodiscard]] std::vector<BatchOutcome> solve_batch_across_platforms(
    const std::string& solver, std::span<const StarPlatform> platforms,
    const SolveRequest& base_request = {}, std::size_t threads = 0);

/// Registry name of the adapter wrapping heuristic `h` ("inc_c", "inc_w",
/// "lifo", "dec_c", "random_fifo").
[[nodiscard]] const char* solver_name_for(Heuristic h) noexcept;

}  // namespace dlsched
