#include "experiments/shard.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "experiments/engine.hpp"
#include "obs/trace.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace dlsched::experiments {

std::vector<std::string> grid_solvers(const ExperimentSpec& spec) {
  return spec.solvers.empty() ? SolverRegistry::instance().names()
                              : spec.solvers;
}

// ---------------------------------------------------------------- planning --

namespace {

/// Canonical z rendering for shard keys: the bit pattern, so planning is
/// immune to formatting differences.
std::string z_key(const std::optional<double>& z) {
  if (!z) return "-";
  std::ostringstream out;
  detail::put_double(out, *z);
  return out.str();
}

}  // namespace

std::vector<CompiledShard> plan_shards(const ExperimentSpec& spec) {
  obs::ObsSpan span("shard", "plan");
  DLSCHED_EXPECT(spec.kind == SpecKind::Grid,
                 "spec '" + spec.name +
                     "': only grid specs compile into shards");
  const std::vector<std::string> solvers = grid_solvers(spec);
  const SolverRegistry& registry = SolverRegistry::instance();
  std::map<std::string, std::unique_ptr<Solver>> solver_objects;
  for (const std::string& name : solvers) {
    solver_objects.emplace(name, registry.create(name));
  }

  // Axis values; an absent axis contributes one point and no parameter.
  std::vector<std::optional<std::size_t>> p_axis{std::nullopt};
  if (!spec.workers.empty()) {
    p_axis.assign(spec.workers.begin(), spec.workers.end());
  }
  std::vector<std::optional<double>> z_axis{std::nullopt};
  if (!spec.z_values.empty()) {
    z_axis.assign(spec.z_values.begin(), spec.z_values.end());
  }
  std::vector<std::optional<double>> slat_axis{std::nullopt};
  if (!spec.send_latencies.empty()) {
    slat_axis.assign(spec.send_latencies.begin(),
                     spec.send_latencies.end());
  }
  std::vector<std::optional<double>> rlat_axis{std::nullopt};
  if (!spec.return_latencies.empty()) {
    rlat_axis.assign(spec.return_latencies.begin(),
                     spec.return_latencies.end());
  }

  // One shard per (p, z) slice, further split per repetition: the
  // repetition split keeps shard weights comparable when one platform
  // size dwarfs the others (micro_solvers' p = 12 slice is ~97% of the
  // spec), which is what lets work stealing actually balance the grid.
  // The latency axes fold *inside* each shard as cells -- one generated
  // platform spans the whole latency surface (isolating the latency
  // effect), and walking the cells in order gives the warm-start chain
  // its structurally adjacent LPs.  Planner order is the nested loop
  // order (p, then z, then rep; cells: send latency, then return
  // latency), so concatenating shard outputs in planner order reproduces
  // a single-process run's artifacts byte for byte.
  std::vector<CompiledShard> shards;
  shards.reserve(p_axis.size() * z_axis.size() * spec.repetitions);
  for (const auto& p : p_axis) {
    for (const auto& z : z_axis) {
      for (std::size_t rep = 0; rep < spec.repetitions; ++rep) {
        CompiledShard shard;
        shard.index = shards.size();
        shard.p = p;
        shard.z = z;
        shard.rep = rep;
        // The shard id hashes the job identities of every cell, so it is
        // stable across runs and processes yet changes with any axis,
        // seed, generator or solver-set edit.
        std::ostringstream id_key;
        id_key << "shard\nspec " << spec.name << "\npoint "
               << (p ? std::to_string(*p) : std::string("-")) << ' '
               << z_key(z) << ' ' << rep << "\njobs ";
        // The latency axes are deliberately outside the instance seed:
        // one platform (and one set of latency factors) spans the whole
        // latency surface.
        const std::uint64_t seed = instance_seed(
            spec.seed, p.value_or(0), z.value_or(-1.0), rep);
        gen::GenParams params = spec.generator_params;
        if (p) params["p"] = static_cast<double>(*p);
        if (z) params["z"] = *z;
        Rng rng(seed);
        const gen::GeneratedPlatform generated =
            gen::GeneratorRegistry::instance().make_generated(
                spec.generator, params, rng);
        SolveRequest base;
        base.platform = generated.platform;
        base.costs.compute_latency = spec.compute_latency;
        base.precision = spec.precision;
        base.time_budget_seconds = spec.time_budget_seconds;
        base.max_workers_brute = spec.max_workers_brute;
        base.seed = seed;
        shard.cells.reserve(slat_axis.size() * rlat_axis.size());
        for (const auto& slat : slat_axis) {
          for (const auto& rlat : rlat_axis) {
            GridCell cell;
            cell.send_latency = slat;
            cell.return_latency = rlat;
            cell.request = base;
            if (slat) cell.request.costs.send_latency = *slat;
            if (rlat) cell.request.costs.return_latency = *rlat;
            // Generator-drawn latency factors scale by the axis value
            // into per-worker overrides (factor 1 == the global latency).
            if (generated.has_latency_draws()) {
              const std::size_t n = generated.platform.size();
              if (slat && *slat > 0.0) {
                auto& per = cell.request.costs.send_latency_per_worker;
                per.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                  per[i] = *slat * generated.latency_factor[i];
                }
              }
              if (rlat && *rlat > 0.0) {
                auto& per = cell.request.costs.return_latency_per_worker;
                per.resize(n);
                for (std::size_t i = 0; i < n; ++i) {
                  per[i] = *rlat * generated.latency_factor[i];
                }
              }
            }
            id_key << "cell " << z_key(slat) << ' ' << z_key(rlat) << ' ';
            // Every solver's job key is `solver \n request key`
            // (`job_canonical_key`): serialize the request once per cell.
            const std::string request_key =
                request_canonical_key(cell.request);
            for (const std::string& solver : solvers) {
              if (!solver_objects.at(solver)->applicable(cell.request)) {
                ++cell.skipped;
                continue;
              }
              std::string job_hash =
                  job_hash_from_key(solver + "\n" + request_key);
              id_key << job_hash << ' ';
              GridSlot slot;
              slot.z = z;
              slot.rep = rep;
              slot.seed = seed;
              slot.solver = solver;
              slot.job_hash = std::move(job_hash);
              cell.slots.push_back(std::move(slot));
            }
            shard.cells.push_back(std::move(cell));
          }
        }
        shard.id = job_hash_from_key(id_key.str());
        shards.push_back(std::move(shard));
      }
    }
  }
  return shards;
}

std::string plan_fingerprint(const std::vector<CompiledShard>& shards) {
  std::string key = "plan ";
  for (const CompiledShard& shard : shards) {
    key += shard.id;
    key += ' ';
  }
  return job_hash_from_key(key);
}

// --------------------------------------------------------------- execution --

ShardResult execute_shard(const ExperimentSpec& spec,
                          const CompiledShard& shard, ResultCache& cache,
                          std::size_t threads) {
  obs::ObsSpan span("shard", "execute");
  if (span.active()) span.rename("execute:" + shard.id);
  ShardResult result;
  result.id = shard.id;
  result.index = shard.index;
  const CacheStats before = cache.stats;

  // Each solver's solved alpha from the previous cell, carried into its
  // next-cell request as the warm-start seed.  The hint comes from the
  // cached record on a hit and from the fresh solution on a miss --
  // `CachedSolve::alpha` round-trips bit-exactly, so the chain (and with
  // it every emitted counter) is independent of the cache state.
  std::map<std::string, std::vector<double>> prev_alpha;

  for (const GridCell& cell : shard.cells) {
    result.jobs += cell.slots.size();
    result.skipped += cell.skipped;

    // ----- cache pass, then one pooled batch over the misses ---------------
    // Keys are computed from the unhinted request; `warm_alpha` is
    // excluded from the canonical serialization, so hinted and unhinted
    // solves of the same job share one cache entry (and one job hash).
    // The canonical key only verifies and writes cache entries, so it is
    // built only when the cache is on; a disabled cache misses without it.
    std::vector<CachedSolve> solves(cell.slots.size());
    std::vector<SolveRequest> hinted;  // stable storage for the views
    std::vector<BatchJobView> views;
    std::vector<std::size_t> view_slot;
    std::vector<std::string> view_keys;  // canonical keys, cache on only
    hinted.reserve(cell.slots.size());
    for (std::size_t i = 0; i < cell.slots.size(); ++i) {
      const GridSlot& slot = cell.slots[i];
      std::string key;
      if (cache.enabled()) key = job_canonical_key(slot.solver, cell.request);
      if (std::optional<CachedSolve> hit = cache.lookup(slot.job_hash, key)) {
        solves[i] = std::move(*hit);
        ++result.cache_hits;
        continue;
      }
      // Only a warm-start hint needs its own copy of the request.
      const SolveRequest* request = &cell.request;
      if (const auto it = prev_alpha.find(slot.solver);
          it != prev_alpha.end()) {
        hinted.push_back(cell.request);
        hinted.back().warm_alpha = it->second;
        request = &hinted.back();
      }
      views.push_back({slot.solver, request, slot.job_hash});
      view_slot.push_back(i);
      if (cache.enabled()) view_keys.push_back(std::move(key));
    }
    // Store each finished job into the cache as soon as it completes (the
    // hook is serialized by solve_batch), so an interrupted run keeps
    // every solve it finished.  With no cache there is nothing to do per
    // job, and the batch runs without a hook.
    BatchProgressHook hook;
    if (cache.enabled()) {
      hook = [&](const BatchProgress& progress, const BatchOutcome& outcome) {
        const std::size_t v = progress.job_index;
        cache.store(cell.slots[view_slot[v]].job_hash, view_keys[v],
                    cached_from_outcome(outcome));
        return true;
      };
    }
    const std::vector<BatchOutcome> outcomes =
        solve_batch(std::span<const BatchJobView>(views), threads, hook);
    for (std::size_t v = 0; v < outcomes.size(); ++v) {
      solves[view_slot[v]] = cached_from_outcome(outcomes[v]);
      if (outcomes[v].deduped) {
        ++result.deduped;
      } else {
        ++result.solved;  // stored by the progress hook already
      }
    }
    for (std::size_t i = 0; i < cell.slots.size(); ++i) {
      if (solves[i].solved && !solves[i].alpha.empty()) {
        prev_alpha[cell.slots[i].solver] = solves[i].alpha;
      }
    }

    // ----- render rows + the aggregation inputs ---------------------------
    double baseline_throughput = 0.0;
    for (std::size_t i = 0; i < cell.slots.size(); ++i) {
      if (cell.slots[i].solver == spec.baseline && solves[i].solved) {
        baseline_throughput = solves[i].throughput;
      }
    }
    result.rows.reserve(result.rows.size() + cell.slots.size());
    for (std::size_t i = 0; i < cell.slots.size(); ++i) {
      const GridSlot& slot = cell.slots[i];
      const CachedSolve& s = solves[i];
      if (!s.solved || !s.validated) ++result.failures;
      ShardRow out;
      out.solved = s.solved;
      out.validated = s.validated;
      out.p = cell.request.platform.size();
      out.z = slot.z;
      out.send_latency = cell.send_latency;
      out.return_latency = cell.return_latency;
      out.solver = slot.solver;
      JsonObject row;
      row.add("solver", slot.solver).add("p", out.p);
      if (slot.z) row.add("z", *slot.z);
      if (cell.send_latency) row.add("send_latency", *cell.send_latency);
      if (cell.return_latency) {
        row.add("return_latency", *cell.return_latency);
      }
      row.add("rep", slot.rep).add("seed", slot.seed);
      row.add("solved", s.solved);
      if (!s.solved) {
        row.add("error", s.error);
      } else {
        // One field list for every result emitter (the grid baselines are
        // byte-compared in CI, so the order lives in exactly one place).
        service::append_result_fields(row, s);
        out.throughput = s.throughput;
        out.wall_seconds = s.wall_seconds;
        if (!spec.baseline.empty() && baseline_throughput > 0.0) {
          out.has_ratio = true;
          out.ratio = s.throughput / baseline_throughput;
        }
      }
      out.json = row.render();
      result.rows.push_back(std::move(out));
    }
  }

  result.cache.hits = cache.stats.hits - before.hits;
  result.cache.misses = cache.stats.misses - before.misses;
  result.cache.stores = cache.stats.stores - before.stores;
  return result;
}

// ----------------------------------------------------------- serialization --

std::string serialize_shard_result(const ShardResult& r) {
  std::ostringstream out;
  // Version 2 added the affine latency coordinates; version-1 fragments
  // fail to parse and degrade to "shard not done yet".
  out << "dlsched-shard 2\n";
  out << "id " << r.id << " index " << r.index << '\n';
  out << "counts " << r.jobs << ' ' << r.cache_hits << ' ' << r.deduped
      << ' ' << r.solved << ' ' << r.failures << ' ' << r.skipped << '\n';
  out << "cache " << r.cache.hits << ' ' << r.cache.misses << ' '
      << r.cache.stores << '\n';
  out << "rows " << r.rows.size() << '\n';
  const auto put_optional = [&out](const std::optional<double>& value) {
    out << value.has_value() << ' ';
    detail::put_double(out, value.value_or(0.0));
  };
  for (const ShardRow& row : r.rows) {
    detail::put_blob(out, "row", row.json);
    out << "agg " << row.solved << ' ' << row.validated << ' ' << row.p
        << ' ';
    put_optional(row.z);
    out << ' ';
    put_optional(row.send_latency);
    out << ' ';
    put_optional(row.return_latency);
    out << ' ' << row.solver << ' ';
    detail::put_double(out, row.throughput);
    out << ' ';
    detail::put_double(out, row.wall_seconds);
    out << ' ' << row.has_ratio << ' ';
    detail::put_double(out, row.ratio);
    out << '\n';
  }
  out << "end\n";
  return out.str();
}

std::optional<ShardResult> parse_shard_result(const std::string& text) {
  try {
    std::istringstream in(text);
    std::string magic, label;
    int version = 0;
    in >> magic >> version;
    DLSCHED_EXPECT(magic == "dlsched-shard" && version == 2,
                   "shard fragment: bad header");
    ShardResult r;
    in >> label >> r.id;
    DLSCHED_EXPECT(label == "id", "shard fragment: expected id");
    in >> label >> r.index;
    DLSCHED_EXPECT(label == "index", "shard fragment: expected index");
    in >> label >> r.jobs >> r.cache_hits >> r.deduped >> r.solved >>
        r.failures >> r.skipped;
    DLSCHED_EXPECT(label == "counts", "shard fragment: expected counts");
    in >> label >> r.cache.hits >> r.cache.misses >> r.cache.stores;
    DLSCHED_EXPECT(label == "cache", "shard fragment: expected cache");
    std::size_t rows = 0;
    in >> label >> rows;
    DLSCHED_EXPECT(label == "rows" && in.good(),
                   "shard fragment: expected row count");
    in.ignore(1);
    r.rows.reserve(rows);
    const auto get_optional = [&in]() -> std::optional<double> {
      bool has = false;
      in >> has;
      const double bits = detail::get_double(in);
      return has ? std::optional<double>(bits) : std::nullopt;
    };
    for (std::size_t i = 0; i < rows; ++i) {
      ShardRow row;
      row.json = detail::get_blob(in, "row");
      in >> label >> row.solved >> row.validated >> row.p;
      DLSCHED_EXPECT(label == "agg", "shard fragment: expected agg");
      row.z = get_optional();
      row.send_latency = get_optional();
      row.return_latency = get_optional();
      in >> row.solver;
      row.throughput = detail::get_double(in);
      row.wall_seconds = detail::get_double(in);
      in >> row.has_ratio;
      row.ratio = detail::get_double(in);
      DLSCHED_EXPECT(in.good(), "shard fragment: truncated row");
      r.rows.push_back(std::move(row));
    }
    in >> label;
    DLSCHED_EXPECT(label == "end" && !in.fail(),
                   "shard fragment: missing end marker");
    return r;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------- assembly --

ShardAssembler::ShardAssembler(BenchJsonWriter* json, std::ostream* csv,
                               RunSummary& summary, std::ostream& log)
    : json_(json), csv_(csv), summary_(summary), log_(log) {}

void ShardAssembler::consume(const ShardResult& result) {
  DLSCHED_EXPECT(result.index == next_index_,
                 "shard results must be assembled in planner order (got "
                 "shard " + std::to_string(result.index) + ", expected " +
                 std::to_string(next_index_) + ")");
  ++next_index_;
  summary_.jobs += result.jobs;
  summary_.cache_hits += result.cache_hits;
  summary_.deduped += result.deduped;
  summary_.solved += result.solved;
  summary_.failures += result.failures;
  summary_.skipped += result.skipped;
  for (const ShardRow& row : result.rows) {
    if (json_) {
      json_->raw_row(row.json);
      ++summary_.rows;
    }
    if (!row.solved) continue;
    std::ostringstream group_key;
    group_key << row.p << '|' << (row.z ? json_double(*row.z) : "-") << '|'
              << (row.send_latency ? json_double(*row.send_latency) : "-")
              << '|'
              << (row.return_latency ? json_double(*row.return_latency)
                                     : "-")
              << '|' << row.solver;
    const auto [it, inserted] =
        group_index_.try_emplace(group_key.str(), groups_.size());
    if (inserted) {
      groups_.push_back({row.p, row.z, row.send_latency, row.return_latency,
                         row.solver, {}, {}, {}});
    }
    Group& group = groups_[it->second];
    group.throughput.add(row.throughput);
    group.wall.add(row.wall_seconds);
    if (row.has_ratio) group.ratio.add(row.ratio);
  }
}

void ShardAssembler::finish() {
  obs::ObsSpan span("shard", "assemble");
  const std::vector<std::string> header{
      "p",           "z",         "send_latency", "return_latency",
      "solver",      "instances", "mean_throughput",
      "mean_wall_seconds", "mean_ratio_vs_baseline",
      "min_ratio",   "max_ratio"};
  std::optional<CsvWriter> csv_writer;
  if (csv_) csv_writer.emplace(*csv_, header);
  Table table(header);
  table.set_precision(5);
  const auto axis_cell = [](const std::optional<double>& v) {
    return v ? format_double(*v, 4) : std::string("-");
  };
  for (const Group& group : groups_) {
    const bool has_ratio = group.ratio.count() > 0;
    table.begin_row()
        .cell(group.p)
        .cell(axis_cell(group.z))
        .cell(axis_cell(group.send_latency))
        .cell(axis_cell(group.return_latency))
        .cell(group.solver)
        .cell(group.throughput.count())
        .cell(group.throughput.mean())
        .cell(group.wall.mean())
        .cell(has_ratio ? format_double(group.ratio.mean(), 5)
                        : std::string("-"))
        .cell(has_ratio ? format_double(group.ratio.min(), 5)
                        : std::string("-"))
        .cell(has_ratio ? format_double(group.ratio.max(), 5)
                        : std::string("-"));
    if (csv_writer) {
      csv_writer->cell(std::to_string(group.p))
          .cell(group.z ? json_double(*group.z) : std::string(""))
          .cell(group.send_latency ? json_double(*group.send_latency)
                                   : std::string(""))
          .cell(group.return_latency ? json_double(*group.return_latency)
                                     : std::string(""))
          .cell(group.solver)
          .cell(group.throughput.count())
          .cell(group.throughput.mean())
          .cell(group.wall.mean());
      if (has_ratio) {
        csv_writer->cell(group.ratio.mean())
            .cell(group.ratio.min())
            .cell(group.ratio.max());
      } else {
        csv_writer->cell(std::string(""))
            .cell(std::string(""))
            .cell(std::string(""));
      }
      csv_writer->end_row();
    }
  }
  table.print_aligned(log_);
}

}  // namespace dlsched::experiments
