#include "experiments/engine.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <system_error>
#include <thread>

#include "experiments/emitter.hpp"
#include "experiments/figures.hpp"
#include "experiments/scheduler.hpp"
#include "experiments/shard.hpp"
#include "experiments/special_runs.hpp"
#include "service/coordinator.hpp"
#include "service/net.hpp"
#include "service/worker.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace dlsched::experiments {

std::string RunSummary::describe() const {
  std::ostringstream out;
  out << spec << ": " << jobs << " job(s), " << cache_hits
      << " cache hit(s), " << deduped << " deduped, " << solved
      << " solved, " << failures << " failure(s)";
  if (skipped > 0) out << ", " << skipped << " inapplicable";
  out << "; " << rows << " row(s)";
  if (shards > 1) out << " across " << shards << " shard(s)";
  if (cache.stores > 0) out << ", " << cache.stores << " cached";
  if (evicted > 0) out << ", " << evicted << " evicted";
  out << "; " << format_double(wall_seconds, 3) << " s";
  return out.str();
}

std::uint64_t instance_seed(std::uint64_t base, std::size_t p, double z,
                            std::size_t rep) {
  // FNV-1a over the coordinate bytes: stable across spec axis orderings,
  // so overlapping sweeps regenerate identical platforms.
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(base);
  mix(p);
  mix(std::bit_cast<std::uint64_t>(z));
  mix(rep);
  return hash;
}

CachedRun run_solver_cached(ResultCache& cache, const std::string& solver,
                            const SolveRequest& request) {
  const std::string key = job_canonical_key(solver, request);
  const std::string hash = job_hash_from_key(key);
  if (std::optional<CachedSolve> hit = cache.lookup(hash, key)) {
    return {*hit, true};
  }
  const BatchJobView view{solver, &request, hash};
  const std::vector<BatchOutcome> outcomes =
      solve_batch(std::span<const BatchJobView>(&view, 1), 1);
  CachedSolve solve = cached_from_outcome(outcomes.front());
  cache.store(hash, key, solve);
  return {std::move(solve), false};
}

namespace {

using std::chrono::steady_clock;

/// The solver set a spec's JSON header advertises (and the grid runs).
std::vector<std::string> resolved_solvers(const ExperimentSpec& spec) {
  switch (spec.kind) {
    case SpecKind::Grid:
      return grid_solvers(spec);
    case SpecKind::Ensemble: {
      std::vector<std::string> solvers{"inc_c"};
      if (spec.include_inc_w) solvers.emplace_back("inc_w");
      solvers.emplace_back("lifo");
      return solvers;
    }
    case SpecKind::Trace:
    case SpecKind::Participation:
    case SpecKind::Selection:
      return {"fifo_optimal"};
    case SpecKind::Multiround:
      return {"inc_c"};
    case SpecKind::Linearity:
    case SpecKind::Micro:
    case SpecKind::Churn:
      return {};
  }
  return {};
}

/// `--quick`: same shape, small axes -- CI smoke and tests.
ExperimentSpec shrink(ExperimentSpec spec) {
  const auto cap = [](auto& values, std::size_t keep) {
    if (values.size() > keep) values.resize(keep);
  };
  spec.repetitions = std::min<std::size_t>(spec.repetitions, 2);
  cap(spec.workers, 2);
  cap(spec.z_values, 2);
  cap(spec.send_latencies, 2);
  cap(spec.return_latencies, 2);
  cap(spec.matrix_sizes, 2);
  cap(spec.latencies, 2);
  spec.platforms = std::min<std::size_t>(spec.platforms, 3);
  spec.total_tasks = std::min<std::uint64_t>(spec.total_tasks, 200);
  spec.max_rounds = std::min<std::size_t>(spec.max_rounds, 6);
  spec.churn_events = std::min<std::size_t>(spec.churn_events, 3);
  return spec;
}

// ------------------------------------------------------------------- grid --
//
// The grid pipeline is sharded (experiments/shard.hpp): one shard per
// (p, z) axis point, each executed through the cached, thread-pooled
// `solve_batch` and emitted as soon as it completes.  Four execution modes
// share the planner and the assembler, so their artifacts are
// byte-identical over the same result cache:
//
//   * in-process (default): shards run sequentially, rows stream into the
//     artifact as each (p, z) slice finishes;
//   * `--workers N`: N forked worker processes race over the shard board
//     (work stealing via claim files), the parent joins the fragments;
//   * `--shard i/k`: this process executes the static slice
//     `index % k == i` and publishes fragments only (for external
//     orchestration across machines sharing the cache directory);
//   * `--join`: no solving, just the deterministic fragment merge.

/// In-process streaming execution: shards in planner order, each emitted
/// on completion.
void run_grid(const ExperimentSpec& spec, const RunOptions& options,
              ResultCache& cache, BenchJsonWriter* json, std::ostream* csv,
              RunSummary& summary, std::ostream& log) {
  const std::vector<CompiledShard> shards = plan_shards(spec);
  summary.shards = shards.size();
  ShardAssembler assembler(json, csv, summary, log);
  for (const CompiledShard& shard : shards) {
    assembler.consume(execute_shard(spec, shard, cache, options.threads));
  }
  assembler.finish();
}

/// `--shard i/k`: execute a static slice, publish fragments, no artifacts.
void run_grid_slice(const ExperimentSpec& spec, const RunOptions& options,
                    ResultCache& cache, RunSummary& summary,
                    std::ostream& log) {
  const std::vector<CompiledShard> shards = plan_shards(spec);
  ShardBoard board(board_directory(options.cache_dir, spec, shards));
  const std::string worker_id =
      "slice" + std::to_string(options.shard_index);
  for (const CompiledShard& shard : shards) {
    if (shard.index % options.shard_count != options.shard_index) continue;
    ++summary.shards;
    const ShardResult result =
        execute_shard(spec, shard, cache, options.threads);
    summary.jobs += result.jobs;
    summary.cache_hits += result.cache_hits;
    summary.deduped += result.deduped;
    summary.solved += result.solved;
    summary.failures += result.failures;
    summary.skipped += result.skipped;
    board.publish(shard, serialize_shard_result(result), worker_id);
    if (obs::Tracer::instance().enabled()) {
      board.publish_trace(
          shard, obs::encode_trace(obs::Tracer::instance().drain()),
          worker_id);
    }
  }
  log << "published " << summary.shards << " of " << shards.size()
      << " shard fragment(s) to " << board.directory()
      << "; assemble with --join once every slice has run\n";
}

/// Deterministic merge of published fragments into the artifacts.  Shared
/// by `--join` and the `--workers` parent.
void join_board(const ExperimentSpec& spec,
                const std::vector<CompiledShard>& shards, ShardBoard& board,
                ResultCache& cache, BenchJsonWriter* json, std::ostream* csv,
                RunSummary& summary, std::ostream& log,
                std::vector<obs::ProcessTrace>* traces = nullptr) {
  summary.shards = shards.size();
  std::vector<ShardResult> results;
  results.reserve(shards.size());
  std::string missing;
  for (const CompiledShard& shard : shards) {
    if (std::optional<ShardResult> result = board.load(shard)) {
      results.push_back(std::move(*result));
    } else {
      missing += ' ' + shard.id;
    }
  }
  DLSCHED_EXPECT(missing.empty(),
                 "cannot join '" + spec.name +
                     "': missing shard fragment(s):" + missing +
                     " (run the remaining --shard slices or workers first)");
  ShardAssembler assembler(json, csv, summary, log);
  for (const ShardResult& result : results) {
    assembler.consume(result);
    // Fold the producing workers' cache deltas into this process's
    // counters so the summary and the last-run marker cover the whole run.
    cache.stats.hits += result.cache.hits;
    cache.stats.misses += result.cache.misses;
    cache.stats.stores += result.cache.stores;
  }
  assembler.finish();
  if (traces != nullptr) {
    // Fold in the trace sidecars the workers published next to their
    // fragments.  A torn or absent sidecar only costs its spans.
    for (const CompiledShard& shard : shards) {
      if (const std::optional<std::string> body = board.load_trace(shard)) {
        try {
          obs::merge_process_trace(*traces, obs::decode_trace(*body));
        } catch (const std::exception&) {
          // corrupt sidecar: ignore
        }
      }
    }
  }
}

/// `--workers N`: fork N work-stealing workers over a fresh board, wait,
/// join their fragments.
void run_grid_workers(const ExperimentSpec& spec, const RunOptions& options,
                      ResultCache& cache, BenchJsonWriter* json,
                      std::ostream* csv, RunSummary& summary,
                      std::ostream& log,
                      std::vector<obs::ProcessTrace>* traces = nullptr) {
  const std::vector<CompiledShard> shards = plan_shards(spec);
  ShardBoard board(board_directory(options.cache_dir, spec, shards));
  // Fragments are run-scoped, unlike the content-addressed cache entries:
  // start every --workers run from a clean board.
  board.reset();
  log << "running " << shards.size() << " shard(s) on " << options.workers
      << " worker process(es), board " << board.directory() << "\n";
  log.flush();

  std::vector<pid_t> children;
  children.reserve(options.workers);
  for (std::size_t w = 0; w < options.workers; ++w) {
    const pid_t pid = ::fork();
    DLSCHED_EXPECT(pid >= 0, "fork() failed for worker " +
                                 std::to_string(w));
    if (pid == 0) {
      // Worker child: claim-execute-publish until the board is complete,
      // then _exit without touching the parent's buffered streams.
      int code = 0;
      try {
        ResultCache worker_cache(options.cache_dir);
        SchedulerOptions scheduler;
        scheduler.worker_id =
            "w" + std::to_string(w) + "-" + std::to_string(::getpid());
        // The fork copied the parent's span buffers and run epoch; drop
        // the inherited spans, keep the shared timeline, and let this
        // child trace under its own worker id.
        if (obs::Tracer::instance().enabled()) {
          obs::Tracer::instance().relabel_after_fork(scheduler.worker_id);
        }
        scheduler.stale_seconds = options.stale_seconds;
        scheduler.threads = options.threads;
        (void)run_worker(spec, shards, board, worker_cache, scheduler);
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    children.push_back(pid);
  }
  std::size_t worker_failures = 0;
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++worker_failures;
    }
  }
  if (worker_failures > 0) {
    log << worker_failures
        << " worker(s) exited abnormally; joining the published "
           "fragments\n";
  }
  join_board(spec, shards, board, cache, json, csv, summary, log, traces);
  // The board was this run's scratch space (reset on entry, fully
  // consumed by the join): remove it so distributed runs do not grow the
  // cache directory past what --cache-max-bytes can see.  Boards built
  // by external --shard slices are left for their eventual --join.
  std::error_code cleanup;
  std::filesystem::remove_all(board.directory(), cleanup);
}

// ---------------------------------------------------------------- cluster --

/// Forks one retirable local TCP worker against `endpoint`.  The child
/// runs the worker loop and `_exit`s without touching the parent's
/// buffered streams (the same fork-without-exec idiom as
/// `run_grid_workers`); its log goes to a sink that dies with it.
pid_t spawn_cluster_worker(const std::string& endpoint, std::size_t ordinal,
                           std::size_t threads) {
  const pid_t pid = ::fork();
  DLSCHED_EXPECT(pid >= 0, "fork() failed for cluster worker " +
                               std::to_string(ordinal));
  if (pid != 0) return pid;
  int code = 0;
  try {
    service::TcpWorkerOptions options;
    options.endpoint = endpoint;
    options.worker_id =
        "local-w" + std::to_string(ordinal) + "-" + std::to_string(::getpid());
    options.threads = threads;
    options.retirable = true;
    // Inherited tracer state: drop the parent's spans, keep its epoch so
    // this worker's spans land on the coordinator's timeline, and ship
    // them back inside FragmentPush under the worker id.
    if (obs::Tracer::instance().enabled()) {
      obs::Tracer::instance().relabel_after_fork(options.worker_id);
    }
    std::ostringstream sink;
    (void)service::run_tcp_worker(options, sink);
  } catch (...) {
    code = 1;
  }
  ::_exit(code);
}

/// `--coordinator HOST:PORT`: own the claim board over TCP.  Local
/// workers (`--workers N` / `--workers auto[:MAX]`) are forked as
/// retirable TCP workers; external ones join with
/// `dlsched_bench --worker tcp://HOST:PORT`.  The coordinator's cache is
/// the synchronization medium, so the joined artifacts stay
/// byte-identical to a single-process run over the same cache.
void run_grid_coordinator(const ExperimentSpec& spec,
                          const RunOptions& options, ResultCache& cache,
                          BenchJsonWriter* json, std::ostream* csv,
                          RunSummary& summary, std::ostream& log,
                          std::vector<obs::ProcessTrace>* traces = nullptr) {
  obs::ObsSpan plan_span("shard", "cluster-plan");
  const auto phase_plan = steady_clock::now();
  std::vector<CompiledShard> shards = plan_shards(spec);
  summary.shards = shards.size();
  const std::size_t shard_count = shards.size();

  const service::net::Endpoint listen =
      service::net::parse_endpoint(options.coordinator);
  DLSCHED_EXPECT(listen.tcp, "--coordinator wants HOST:PORT (got '" +
                                 options.coordinator + "')");
  service::CoordinatorConfig config;
  config.host = listen.host;
  config.port = listen.port;
  config.lease_ttl_seconds = options.lease_ttl_seconds;
  service::Coordinator coordinator(spec, std::move(shards), cache, config);
  const std::string endpoint = coordinator.endpoint();
  plan_span.finish();
  const auto phase_exec = steady_clock::now();

  const auto since = [](steady_clock::time_point start) {
    return std::chrono::duration<double>(steady_clock::now() - start)
        .count();
  };
  const auto stop_requested = [&options] {
    return options.stop_signal &&
           options.stop_signal->load(std::memory_order_relaxed) != 0;
  };

  log << "coordinator listening on " << endpoint << ": " << shard_count
      << " shard(s), lease TTL "
      << format_double(config.lease_ttl_seconds, 3) << " s\n";
  log.flush();

  std::vector<pid_t> children;
  std::size_t spawned = 0;
  const auto spawn = [&] {
    children.push_back(
        spawn_cluster_worker(endpoint, spawned++, options.threads));
    coordinator.note_worker_spawned();
  };

  if (options.autoscale) {
    // Queue-depth-driven autoscaling: each 50ms tick reaps exited
    // children, then sizes the local fleet to the remaining work
    // (backlog + outstanding leases, clamped to [1, max]).  Growth is one
    // spawn per tick so a short burst does not overshoot; surplus workers
    // are retired through Retire grants on their next Acquire.
    std::size_t cap = options.autoscale_max;
    if (cap == 0) {
      cap = std::max(1u, std::thread::hardware_concurrency());
    }
    log << "autoscaling local workers up to " << cap << "\n";
    std::size_t pending_retires = 0;
    while (!coordinator.finished() && !stop_requested()) {
      for (auto it = children.begin(); it != children.end();) {
        int status = 0;
        if (::waitpid(*it, &status, WNOHANG) == *it) {
          it = children.erase(it);
          if (pending_retires > 0) --pending_retires;
        } else {
          ++it;
        }
      }
      const service::CoordinatorGauges gauges = coordinator.gauges();
      const std::size_t work =
          gauges.shard_backlog + gauges.leases_outstanding;
      const std::size_t target = std::clamp<std::size_t>(work, 1, cap);
      const std::size_t live = children.size();
      if (live < target && gauges.shards_done < shard_count) {
        spawn();
        log << "autoscale t=" << format_double(since(phase_exec), 3)
            << "s: +1 worker (live " << children.size() << "/" << target
            << ", backlog " << gauges.shard_backlog << ", leased "
            << gauges.leases_outstanding << ")\n";
        log.flush();
      } else if (live > target + pending_retires) {
        const std::size_t surplus = live - target - pending_retires;
        coordinator.request_retire(surplus);
        pending_retires += surplus;
        log << "autoscale t=" << format_double(since(phase_exec), 3)
            << "s: retiring " << surplus << " worker(s) (live " << live
            << "/" << target << ", backlog " << gauges.shard_backlog
            << ")\n";
        log.flush();
      }
      (void)coordinator.wait_finished(0.05);
    }
  } else {
    for (std::size_t w = 0; w < options.cluster_workers; ++w) spawn();
    if (options.cluster_workers > 0) {
      log << "spawned " << options.cluster_workers
          << " local worker(s)\n";
    } else {
      log << "waiting for external workers (dlsched_bench --worker "
          << "tcp://" << listen.host << ":" << coordinator.port() << ")\n";
    }
    log.flush();
    while (!coordinator.finished() && !stop_requested()) {
      (void)coordinator.wait_finished(0.1);
    }
  }

  // Granting stops either way; leased shards still stream their
  // fragments in, so drained workers exit without wasting claimed work.
  coordinator.begin_drain();
  std::size_t worker_failures = 0;
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++worker_failures;
    }
  }
  if (worker_failures > 0) {
    log << worker_failures << " cluster worker(s) exited abnormally\n";
  }

  if (!coordinator.finished()) {
    const service::CoordinatorGauges gauges = coordinator.gauges();
    coordinator.stop();
    // The streaming emitters opened the artifact files up front; a
    // drained run must not leave header-only stubs behind.  The caller's
    // still-open streams flush into the unlinked inodes, which vanish on
    // close.
    std::error_code ec;
    if (!options.out_json.empty()) {
      std::filesystem::remove(options.out_json, ec);
    }
    if (!options.out_csv.empty()) {
      std::filesystem::remove(options.out_csv, ec);
    }
    log << "dlsched_bench: coordinator drained (" << gauges.shards_done
        << "/" << shard_count << " shard(s) done); artifacts not written\n";
    log.flush();
    DLSCHED_FAIL("coordinator drained before completion (" +
                 std::to_string(gauges.shards_done) + "/" +
                 std::to_string(shard_count) + " shard(s) done)");
  }

  const double exec_seconds = since(phase_exec);
  const auto phase_join = steady_clock::now();
  const std::vector<ShardResult> results = coordinator.take_results();
  const service::CoordinatorGauges gauges = coordinator.gauges();
  if (traces != nullptr) {
    for (obs::ProcessTrace& trace : coordinator.take_worker_traces()) {
      obs::merge_process_trace(*traces, std::move(trace));
    }
  }
  coordinator.stop();
  ShardAssembler assembler(json, csv, summary, log);
  for (const ShardResult& result : results) assembler.consume(result);
  assembler.finish();
  log << "cluster phases: plan "
      << format_double(
             std::chrono::duration<double>(phase_exec - phase_plan).count(),
             3)
      << " s, execute " << format_double(exec_seconds, 3) << " s, join "
      << format_double(since(phase_join), 3) << " s\n"
      << "cluster board: " << gauges.workers_spawned << " spawned, "
      << gauges.workers_retired << " retired, "
      << gauges.lease_reassignments << " lease reassignment(s), "
      << gauges.fragments_discarded << " fragment(s) discarded, "
      << gauges.fragment_bytes << " fragment byte(s)\n";
}

// --------------------------------------------------------------- ensemble --

/// Maps an ensemble spec's generator name onto the Section 5 speed-factor
/// family it wraps.
SpeedGenerator ensemble_generator(const ExperimentSpec& spec) {
  const gen::SpeedRange range{
      gen::param_or(spec.generator_params, "lo", 1.0),
      gen::param_or(spec.generator_params, "hi", 10.0)};
  if (spec.generator == "matrix_homogeneous") {
    return [range](std::size_t p, Rng& rng) {
      return gen::homogeneous_speeds(p, rng, range);
    };
  }
  if (spec.generator == "matrix_bus_hetero_comp") {
    return [range](std::size_t p, Rng& rng) {
      return gen::bus_hetero_comp_speeds(p, rng, range);
    };
  }
  if (spec.generator == "matrix_heterogeneous") {
    return [range](std::size_t p, Rng& rng) {
      return gen::heterogeneous_speeds(p, rng, range);
    };
  }
  DLSCHED_FAIL("ensemble specs need a matrix_* generator "
               "(matrix_homogeneous, matrix_bus_hetero_comp, "
               "matrix_heterogeneous); got '" +
               spec.generator + "'");
}

void run_ensemble_kind(const ExperimentSpec& spec, const RunOptions& options,
                       BenchJsonWriter* json, std::ostream* csv,
                       RunSummary& summary, std::ostream& log) {
  FigureConfig config;
  config.total_tasks = spec.total_tasks;
  config.workers = spec.workers.empty() ? 11 : spec.workers.front();
  config.platforms = spec.platforms;
  config.seed = spec.seed;
  config.comm_speed_up = spec.comm_speed_up;
  config.comp_speed_up = spec.comp_speed_up;
  config.threads = options.threads;
  const SpeedGenerator generator = ensemble_generator(spec);

  std::vector<std::string> header{"matrix_size", "inc_c_lp_seconds",
                                  "inc_c_real_over_lp"};
  if (spec.include_inc_w) {
    header.emplace_back("inc_w_lp_over_lp");
    header.emplace_back("inc_w_real_over_lp");
  }
  header.emplace_back("lifo_lp_over_lp");
  header.emplace_back("lifo_real_over_lp");
  std::optional<CsvWriter> csv_writer;
  if (csv) csv_writer.emplace(*csv, header);
  Table table(header);
  table.set_precision(4);

  const std::size_t series = spec.include_inc_w ? 3 : 2;
  for (const std::size_t n : spec.matrix_sizes) {
    const EnsembleRow row =
        run_ensemble(config, generator, n, spec.include_inc_w);
    summary.jobs += spec.platforms * series;
    summary.solved += spec.platforms * series;
    table.begin_row().cell(row.matrix_size).cell(row.inc_c_lp).cell(
        row.inc_c_real_ratio);
    if (csv_writer) {
      csv_writer->cell(row.matrix_size)
          .cell(row.inc_c_lp)
          .cell(row.inc_c_real_ratio);
    }
    if (spec.include_inc_w) {
      table.cell(row.inc_w_lp_ratio).cell(row.inc_w_real_ratio);
      if (csv_writer) {
        csv_writer->cell(row.inc_w_lp_ratio).cell(row.inc_w_real_ratio);
      }
    }
    table.cell(row.lifo_lp_ratio).cell(row.lifo_real_ratio);
    if (csv_writer) {
      csv_writer->cell(row.lifo_lp_ratio).cell(row.lifo_real_ratio);
      csv_writer->end_row();
    }
    if (json) {
      json->row(JsonObject()
                    .add("solver", "inc_c")
                    .add("matrix_size", row.matrix_size)
                    .add("lp_seconds", row.inc_c_lp)
                    .add("lp_over_inc_c", 1.0)
                    .add("real_over_inc_c", row.inc_c_real_ratio));
      ++summary.rows;
      if (spec.include_inc_w) {
        json->row(JsonObject()
                      .add("solver", "inc_w")
                      .add("matrix_size", row.matrix_size)
                      .add("lp_seconds",
                           row.inc_w_lp_ratio * row.inc_c_lp)
                      .add("lp_over_inc_c", row.inc_w_lp_ratio)
                      .add("real_over_inc_c", row.inc_w_real_ratio));
        ++summary.rows;
      }
      json->row(JsonObject()
                    .add("solver", "lifo")
                    .add("matrix_size", row.matrix_size)
                    .add("lp_seconds", row.lifo_lp_ratio * row.inc_c_lp)
                    .add("lp_over_inc_c", row.lifo_lp_ratio)
                    .add("real_over_inc_c", row.lifo_real_ratio));
      ++summary.rows;
    }
  }
  table.print_aligned(log);
  log << "(" << config.platforms << " random platforms per point, M = "
      << config.total_tasks << " tasks, " << config.workers
      << " workers; ratios normalized by the INC_C LP prediction)\n";
}

/// Renders the per-phase attribution as a JSON array (the `phases`
/// trailer of a traced BENCH artifact).
std::string render_phases_json(
    const std::vector<obs::PhaseAttribution>& phases) {
  std::string out = "[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i != 0) out += ',';
    out += JsonObject()
               .add("phase", phases[i].category)
               .add("spans", static_cast<std::size_t>(phases[i].spans))
               .add("seconds", phases[i].seconds)
               .render();
  }
  out += ']';
  return out;
}

/// Traced runs only: closes the root span, merges every process's spans
/// into one timeline, fills `summary.phases`, appends the phase table to
/// the BENCH artifact and writes the Chrome trace_event JSON.
void finish_observability(const ExperimentSpec& spec,
                          const RunOptions& options,
                          std::vector<obs::ProcessTrace>& worker_traces,
                          RunSummary& summary, BenchJsonWriter* json,
                          std::ostream& log) {
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!tracer.enabled() || options.trace_path.empty()) return;
  // The root span runs from the epoch (stamped before spec parsing, so
  // t=0 on the timeline) to now: parse + plan + execute + assemble.
  tracer.record("run", "run:" + spec.name, 0, tracer.now_us());
  std::vector<obs::ProcessTrace> merged;
  obs::merge_process_trace(merged, tracer.drain());
  for (obs::ProcessTrace& trace : worker_traces) {
    obs::merge_process_trace(merged, std::move(trace));
  }
  worker_traces.clear();
  summary.phases = obs::attribute_phases(merged);
  if (json) json->add_trailer_raw("phases", render_phases_json(summary.phases));

  std::ofstream out(options.trace_path, std::ios::binary);
  DLSCHED_EXPECT(out.good(), "cannot write '" + options.trace_path + "'");
  out << obs::render_trace_json(merged);
  out.flush();
  DLSCHED_EXPECT(out.good(),
                 "short write to '" + options.trace_path + "'");

  Table table({"phase", "spans", "seconds"});
  table.set_precision(6);
  for (const obs::PhaseAttribution& phase : summary.phases) {
    table.begin_row()
        .cell(phase.category)
        .cell(std::to_string(phase.spans))
        .cell(format_double(phase.seconds, 6));
  }
  table.print_aligned(log);
  log << "trace written to " << options.trace_path << " ("
      << merged.size() << " process(es))\n";
}

}  // namespace

// ---------------------------------------------------------------- run_spec --

RunSummary run_spec(const ExperimentSpec& requested,
                    const RunOptions& options) {
  const ExperimentSpec spec =
      options.quick ? shrink(requested) : requested;
  validate_spec(spec);
  std::ostream& log = options.log ? *options.log : std::cout;
  RunSummary summary;
  summary.spec = spec.name;
  // The run clock starts at the driver's epoch when one was stamped
  // (before spec parsing), so `wall_seconds` matches what /usr/bin/time
  // reports instead of excluding parse + plan.
  const auto start = options.run_epoch.value_or(steady_clock::now());

  const bool slice = options.shard_count > 0;
  const bool multi = options.workers > 1;
  const bool cluster = !options.coordinator.empty();
  if (slice || multi || options.join_only || cluster) {
    DLSCHED_EXPECT(spec.kind == SpecKind::Grid,
                   "spec '" + spec.name + "' is kind '" +
                       kind_name(spec.kind) +
                       "': --workers/--shard/--join apply to grid specs "
                       "only");
    DLSCHED_EXPECT(!options.cache_dir.empty(),
                   "distributed execution needs a cache directory (the "
                   "shard board and the shared results live there); drop "
                   "--no-cache");
    DLSCHED_EXPECT(!(slice && (multi || options.join_only)),
                   "--shard is a worker role; it excludes --workers and "
                   "--join");
    DLSCHED_EXPECT(!(multi && options.join_only),
                   "--join assembles already-published fragments; it "
                   "excludes --workers (which starts a fresh board)");
    DLSCHED_EXPECT(!slice || options.shard_index < options.shard_count,
                   "--shard i/k needs i < k");
    DLSCHED_EXPECT(options.workers <= 256,
                   "--workers " + std::to_string(options.workers) +
                       " is past the 256-process sanity cap");
    DLSCHED_EXPECT(!(cluster && (slice || multi || options.join_only)),
                   "--coordinator owns the whole run over TCP; it excludes "
                   "the filesystem board's --workers N, --shard and --join");
    DLSCHED_EXPECT(options.cluster_workers <= 256,
                   "--workers " + std::to_string(options.cluster_workers) +
                       " is past the 256-process sanity cap");
  }

  ResultCache cache;
  if (!options.cache_dir.empty()) cache = ResultCache(options.cache_dir);

  if (slice) {
    // Worker role: execute the static slice and publish fragments;
    // artifacts are written by the eventual --join.
    log << "== " << spec.name << " -- " << spec.title << " [" << spec.figure
        << "] (shard slice " << options.shard_index << "/"
        << options.shard_count << ")\n";
    run_grid_slice(spec, options, cache, summary, log);
    if (options.cache_max_bytes > 0) {
      summary.evicted = cache.evict_to(options.cache_max_bytes);
    }
    summary.cache = cache.stats;
    cache.write_last_run(spec.name);
    std::vector<obs::ProcessTrace> worker_traces;
    finish_observability(spec, options, worker_traces, summary, nullptr,
                         log);
    summary.wall_seconds =
        std::chrono::duration<double>(steady_clock::now() - start).count();
    log << summary.describe() << "\n";
    return summary;
  }

  std::ofstream json_file;
  std::optional<BenchJsonWriter> json;
  if (!options.out_json.empty()) {
    json_file.open(options.out_json, std::ios::binary);
    DLSCHED_EXPECT(json_file.good(),
                   "cannot write '" + options.out_json + "'");
    json.emplace(json_file, spec, resolved_solvers(spec));
  }
  std::ofstream csv_file;
  std::ostream* csv = nullptr;
  if (!options.out_csv.empty()) {
    csv_file.open(options.out_csv, std::ios::binary);
    DLSCHED_EXPECT(csv_file.good(), "cannot write '" + options.out_csv + "'");
    csv = &csv_file;
  }

  log << "== " << spec.name << " -- " << spec.title << " [" << spec.figure
      << "]\n";
  BenchJsonWriter* json_ptr = json ? &*json : nullptr;
  std::vector<obs::ProcessTrace> worker_traces;
  switch (spec.kind) {
    case SpecKind::Grid:
      if (cluster) {
        run_grid_coordinator(spec, options, cache, json_ptr, csv, summary,
                             log, &worker_traces);
      } else if (multi) {
        run_grid_workers(spec, options, cache, json_ptr, csv, summary, log,
                         &worker_traces);
      } else if (options.join_only) {
        const std::vector<CompiledShard> shards = plan_shards(spec);
        ShardBoard board(board_directory(options.cache_dir, spec, shards));
        join_board(spec, shards, board, cache, json_ptr, csv, summary, log,
                   &worker_traces);
      } else {
        run_grid(spec, options, cache, json_ptr, csv, summary, log);
      }
      break;
    case SpecKind::Ensemble:
      run_ensemble_kind(spec, options, json_ptr, csv, summary, log);
      break;
    case SpecKind::Linearity:
      detail::run_linearity(spec, options, json_ptr, csv, summary, log);
      break;
    case SpecKind::Trace:
      detail::run_trace(spec, options, cache, json_ptr, csv, summary, log);
      break;
    case SpecKind::Participation:
      detail::run_participation(spec, options, cache, json_ptr, csv,
                                summary, log);
      break;
    case SpecKind::Selection:
      detail::run_selection(spec, options, cache, json_ptr, csv, summary,
                            log);
      break;
    case SpecKind::Multiround:
      detail::run_multiround(spec, options, json_ptr, csv, summary, log);
      break;
    case SpecKind::Micro:
      detail::run_micro(spec, options, json_ptr, csv, summary, log);
      break;
    case SpecKind::Churn:
      detail::run_churn(spec, options, json_ptr, csv, summary, log);
      break;
  }
  finish_observability(spec, options, worker_traces, summary, json_ptr,
                       log);
  if (json) json->finish();

  if (options.cache_max_bytes > 0) {
    summary.evicted = cache.evict_to(options.cache_max_bytes);
  }
  summary.cache = cache.stats;
  cache.write_last_run(spec.name);  // what --cache-stats reports
  summary.wall_seconds =
      std::chrono::duration<double>(steady_clock::now() - start).count();
  log << summary.describe() << "\n";
  if (!options.out_json.empty()) {
    log << "JSON written to " << options.out_json << "\n";
  }
  if (!options.out_csv.empty()) {
    log << "CSV written to " << options.out_csv << "\n";
  }
  return summary;
}

}  // namespace dlsched::experiments
