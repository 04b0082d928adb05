// The per-layer ledger: self-time analysis over the spans of one traced
// benchmark phase, and the per-layer metrics derived from it.
//
// A span's *self time* is its duration minus the part of it that its
// children cover on the same lane (thread).  Children are found by nesting:
// spans on one lane come from RAII guards, so a span that starts inside an
// open span on the same lane ends inside it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

using dlsched::obs::SpanRecord;

/// "category/name" with any ":detail" suffix of the name dropped, so
/// "solve:lifo" and "solve:inc_c" share the key "solve/solve".
[[nodiscard]] std::string span_key(const SpanRecord& span);

/// Per-span nesting on each lane: `parent[i]` is the index of the
/// innermost span on the same lane that contains span i (-1 for a root),
/// `self_us[i]` is span i's duration minus its direct children's.
struct SpanForest {
  std::vector<std::ptrdiff_t> parent;
  std::vector<double> self_us;
};
[[nodiscard]] SpanForest build_forest(const std::vector<SpanRecord>& spans);

/// The daemon's admission queue reconstructed from spans.  Requests that
/// missed the cache leave the queue in FIFO order, and the single batcher
/// names each batch span "batch:N", so the k-th batch takes the next N
/// missed admits (ordered by admit end).  A cache-hit admit is recognised by
/// the reply frame it encodes inside its own span.
struct QueueMatch {
  std::size_t batches = 0;
  std::size_t batched_requests = 0;  ///< sum of N over "batch:N"
  std::size_t matched = 0;           ///< admits assigned to a batch
  double wait_us = 0.0;       ///< summed batch start - admit end
  double residence_us = 0.0;  ///< summed settle end - admit start (misses)
  std::size_t hit_admits = 0;
  double hit_residence_us = 0.0;  ///< summed duration of hit admits
};
[[nodiscard]] QueueMatch match_queue(const std::vector<SpanRecord>& spans,
                                     const SpanForest& forest);

/// Everything one traced phase measured besides its spans.
struct TracedPhase {
  std::vector<SpanRecord> spans;
  std::size_t ops = 0;     ///< requests (serve) or grid jobs (sweeps)
  std::size_t passes = 0;  ///< run_spec calls; 0 for serve workloads
  std::size_t shards = 0;  ///< shards planned over all passes
  std::size_t threads = 1; ///< solve pool size
  double hit_ratio = 0.0;
  std::uint64_t cache_stores = 0;
  std::uint64_t arena_acquires = 0;
  std::uint64_t arena_pool_hits = 0;
  std::uint64_t lp_pivots = 0;      ///< summed over the phase's solves
  std::uint64_t affine_tried = 0;   ///< affine_subset subsets tried
  std::uint64_t affine_skipped = 0; ///< ... pruned plus screened
  std::vector<double> send_lag_ms;  ///< open loop only
  double latency_total_us = 0.0;    ///< summed client latency (serve)
  double untraced_p50_ms = 0.0;     ///< primary metric without tracing
  double traced_p50_ms = 0.0;       ///< ... and with tracing
};

/// The per-layer metrics, by name (see README.md for definitions).
[[nodiscard]] std::map<std::string, double> layer_metrics(
    const TracedPhase& phase);

}  // namespace perfbench
