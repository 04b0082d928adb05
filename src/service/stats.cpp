#include "service/stats.hpp"

#include "experiments/emitter.hpp"

namespace dlsched::service {

namespace {
// Registry names for the daemon's cumulative counters; the claim-board
// gauges mirror under "board.*".  README "Observability" lists them all.
constexpr const char* kAdmitted = "service.admitted";
constexpr const char* kRejected = "service.rejected";
constexpr const char* kCacheHits = "service.cache_hits";
constexpr const char* kSolved = "service.solved";
constexpr const char* kDeduped = "service.deduped";
constexpr const char* kProtocolErrors = "service.protocol_errors";
constexpr const char* kLatency = "service.latency";
}  // namespace

void ServiceStats::on_admitted(bool opened) {
  registry_.add(kAdmitted);
  if (!opened) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++state_.queued;
}

void ServiceStats::on_rejected() { registry_.add(kRejected); }

void ServiceStats::on_protocol_error() { registry_.add(kProtocolErrors); }

void ServiceStats::on_batch_started(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  state_.queued -= n < state_.queued ? n : state_.queued;
  state_.in_flight += n;
}

void ServiceStats::on_completed(Completion kind, double latency_seconds) {
  switch (kind) {
    case Completion::CacheHit:
      registry_.add(kCacheHits);
      break;
    case Completion::Solved:
      registry_.add(kSolved);
      break;
    case Completion::Deduped:
      registry_.add(kDeduped);
      break;
  }
  registry_.observe(kLatency, latency_seconds);
}

void ServiceStats::on_batch_finished(std::size_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  state_.in_flight -= n < state_.in_flight ? n : state_.in_flight;
}

void ServiceStats::set_draining(bool draining) {
  const std::lock_guard<std::mutex> lock(mutex_);
  state_.draining = draining;
}

void ServiceStats::set_board(const CoordinatorGauges& board) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    state_.board = board;
  }
  registry_.set_gauge("board.shards_total",
                      static_cast<std::int64_t>(board.shards_total));
  registry_.set_gauge("board.shards_done",
                      static_cast<std::int64_t>(board.shards_done));
  registry_.set_gauge("board.shard_backlog",
                      static_cast<std::int64_t>(board.shard_backlog));
  registry_.set_gauge("board.leases_outstanding",
                      static_cast<std::int64_t>(board.leases_outstanding));
  registry_.set_gauge("board.fragment_bytes",
                      static_cast<std::int64_t>(board.fragment_bytes));
  registry_.set_gauge("board.fragments_discarded",
                      static_cast<std::int64_t>(board.fragments_discarded));
  registry_.set_gauge("board.lease_reassignments",
                      static_cast<std::int64_t>(board.lease_reassignments));
  registry_.set_gauge("board.workers_spawned",
                      static_cast<std::int64_t>(board.workers_spawned));
  registry_.set_gauge("board.workers_retired",
                      static_cast<std::int64_t>(board.workers_retired));
}

StatsSnapshot ServiceStats::snapshot() const {
  StatsSnapshot s;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s = state_;
  }
  s.admitted = registry_.counter(kAdmitted);
  s.rejected = registry_.counter(kRejected);
  s.cache_hits = registry_.counter(kCacheHits);
  s.solved = registry_.counter(kSolved);
  s.deduped = registry_.counter(kDeduped);
  s.protocol_errors = registry_.counter(kProtocolErrors);
  s.latency = registry_.histogram(kLatency);
  return s;
}

std::string ServiceStats::render_json() const {
  const StatsSnapshot s = snapshot();
  const std::uint64_t answered = s.cache_hits + s.solved + s.deduped;
  experiments::JsonObject report;
  report.add("admitted", static_cast<std::size_t>(s.admitted))
      .add("rejected", static_cast<std::size_t>(s.rejected))
      .add("cache_hits", static_cast<std::size_t>(s.cache_hits))
      .add("solved", static_cast<std::size_t>(s.solved))
      .add("deduped", static_cast<std::size_t>(s.deduped))
      .add("protocol_errors", static_cast<std::size_t>(s.protocol_errors))
      .add("completed", static_cast<std::size_t>(answered))
      .add("queued", s.queued)
      .add("in_flight", s.in_flight)
      .add("draining", s.draining)
      .add("uptime_seconds", registry_.uptime_seconds())
      .add("hit_ratio",
           answered == 0 ? 0.0
                         : static_cast<double>(s.cache_hits) /
                               static_cast<double>(answered))
      .add("latency_p50_s", s.latency.quantile_upper(0.50))
      .add("latency_p90_s", s.latency.quantile_upper(0.90))
      .add("latency_p99_s", s.latency.quantile_upper(0.99));
  report.add_raw("latency_us_log2_buckets", s.latency.render_buckets_json());
  if (s.board.cluster) {
    report.add("shards_total", s.board.shards_total)
        .add("shards_done", s.board.shards_done)
        .add("shard_backlog", s.board.shard_backlog)
        .add("leases_outstanding", s.board.leases_outstanding)
        .add("fragment_bytes", static_cast<std::size_t>(s.board.fragment_bytes))
        .add("fragments_discarded",
             static_cast<std::size_t>(s.board.fragments_discarded))
        .add("lease_reassignments",
             static_cast<std::size_t>(s.board.lease_reassignments))
        .add("workers_spawned",
             static_cast<std::size_t>(s.board.workers_spawned))
        .add("workers_retired",
             static_cast<std::size_t>(s.board.workers_retired));
  }
  return report.render();
}

}  // namespace dlsched::service
