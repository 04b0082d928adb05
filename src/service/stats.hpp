// The dlsched_serve stats mailbox.
//
// One shared `ServiceStats` instance tracks the daemon's request
// lifecycle -- admitted / rejected / cache-hit / solved / deduped
// cumulative counters, current queue depth and in-flight count, and a
// log-bucketed per-request latency histogram -- and renders itself as one
// JSON object for the StatsReport frame.  Mutation is mutex-guarded (the
// counters move together: a job leaves `queued` exactly when it enters
// `in_flight`), queries take a consistent snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"

namespace dlsched::service {

/// The daemon's latency histogram is the observability layer's log2
/// histogram -- one implementation, one JSON rendering, shared with the
/// bench phase table (see src/obs/metrics.hpp for bucket semantics).
using LatencyHistogram = obs::Log2Histogram;

/// Gauges the cluster coordinator publishes alongside the request
/// counters (service/coordinator.hpp): the live shape of the in-memory
/// claim board.  `cluster = true` marks the snapshot as coming from a
/// coordinator; the daemon leaves it false and `render_json` then omits
/// the block, keeping daemon reports unchanged.
struct CoordinatorGauges {
  bool cluster = false;
  std::size_t shards_total = 0;
  std::size_t shards_done = 0;            ///< accepted fragments
  std::size_t shard_backlog = 0;          ///< current: unleased, unfinished
  std::size_t leases_outstanding = 0;     ///< current: granted, live
  std::uint64_t fragment_bytes = 0;       ///< accepted fragment payloads
  std::uint64_t fragments_discarded = 0;  ///< duplicate / corrupt pushes
  std::uint64_t lease_reassignments = 0;  ///< TTL expiries re-granted
  std::uint64_t workers_spawned = 0;      ///< autoscaler spawns
  std::uint64_t workers_retired = 0;      ///< autoscaler retires
};

/// Counter snapshot; every field cumulative unless noted.
struct StatsSnapshot {
  std::uint64_t admitted = 0;    ///< opened or joined a job, or cache-hit
  std::uint64_t rejected = 0;    ///< backpressure / drain rejects
  std::uint64_t cache_hits = 0;  ///< from the cache or an answered job
  std::uint64_t solved = 0;      ///< answered by running a solver
  std::uint64_t deduped = 0;     ///< joined a job being solved
  std::uint64_t protocol_errors = 0;  ///< malformed frames / bodies seen
  std::size_t queued = 0;        ///< current: jobs admitted, not batched
  std::size_t in_flight = 0;     ///< current: jobs inside solve_batch
  bool draining = false;
  LatencyHistogram latency;      ///< admission-to-response, completed only
  CoordinatorGauges board;       ///< cluster claim board (coordinator only)
};

/// The mailbox.  All methods are thread-safe.
class ServiceStats {
 public:
  /// A request was admitted; `queued + 1` when it `opened` a job, not
  /// when it joined a live job or hit the cache.
  void on_admitted(bool opened);
  void on_rejected();
  void on_protocol_error();
  /// `queued - n`, `in_flight + n`: a micro-batch left the queue.
  void on_batch_started(std::size_t n);
  /// One request completed (`kind` routes the cumulative counter).
  enum class Completion { CacheHit, Solved, Deduped };
  void on_completed(Completion kind, double latency_seconds);
  /// A batch's requests all completed: `in_flight - n`.
  void on_batch_finished(std::size_t n);
  void set_draining(bool draining);
  /// Publishes a fresh claim-board gauge snapshot (coordinator only; the
  /// coordinator owns the board state under its own lock and mirrors it
  /// here after every mutation, so StatsQuery never touches the board).
  void set_board(const CoordinatorGauges& board);

  [[nodiscard]] StatsSnapshot snapshot() const;

  /// The StatsReport payload: one JSON object with every counter, the
  /// derived cache hit ratio, bucketed latency quantiles, the raw
  /// histogram buckets and the service uptime.
  [[nodiscard]] std::string render_json() const;

  /// The registry behind the cumulative counters and the latency
  /// histogram; its birth stamp is the reported `uptime_seconds`.
  [[nodiscard]] const obs::MetricsRegistry& registry() const {
    return registry_;
  }

 private:
  // Cumulative counters and the latency histogram live in the metrics
  // registry (names "service.*"); only the level values -- queue depth,
  // in-flight count, drain flag and the mirrored claim board -- stay in
  // the mutex-guarded snapshot state.
  obs::MetricsRegistry registry_;
  mutable std::mutex mutex_;
  StatsSnapshot state_;
};

}  // namespace dlsched::service
