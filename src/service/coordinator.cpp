#include "service/coordinator.hpp"

#include <utility>

#include "service/net.hpp"
#include "util/error.hpp"

namespace dlsched::service {

Coordinator::Coordinator(const experiments::ExperimentSpec& spec,
                         std::vector<experiments::CompiledShard> shards,
                         experiments::ResultCache& cache,
                         CoordinatorConfig config)
    : spec_(spec),
      shards_(std::move(shards)),
      spec_toml_(experiments::render_spec_toml(spec)),
      fingerprint_(experiments::plan_fingerprint(shards_)),
      config_(std::move(config)),
      cache_(cache),
      listener_(net::listen_tcp(config_.host, config_.port, port_), stats_,
                {{FrameType::LeaseRequest,
                  [this](const std::string& payload) {
                    return handle_lease_payload(payload);
                  }},
                 {FrameType::FragmentPush,
                  [this](const std::string& payload) {
                    return handle_fragment_payload(payload);
                  }}}) {
  DLSCHED_EXPECT(!shards_.empty(), "coordinator: empty shard plan");
  DLSCHED_EXPECT(config_.lease_ttl_seconds > 0.0,
                 "coordinator: lease TTL must be positive");
  slots_.resize(shards_.size());
  results_.resize(shards_.size());
  gauges_.cluster = true;
  gauges_.shards_total = shards_.size();
  const std::lock_guard<std::mutex> lock(board_mutex_);
  publish_gauges_locked();
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() { listener_.start(); }

std::string Coordinator::endpoint() const {
  return "tcp://" + config_.host + ":" + std::to_string(port_);
}

void Coordinator::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(board_mutex_);
    draining_ = true;
  }
  stats_.set_draining(true);
}

void Coordinator::stop() {
  if (stopped_) return;
  stopped_ = true;
  begin_drain();
  listener_.stop();
}

bool Coordinator::finished() const {
  const std::lock_guard<std::mutex> lock(board_mutex_);
  return done_count_ == shards_.size();
}

bool Coordinator::wait_finished(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(board_mutex_);
  done_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return done_count_ == shards_.size(); });
  return done_count_ == shards_.size();
}

std::vector<experiments::ShardResult> Coordinator::take_results() {
  const std::lock_guard<std::mutex> lock(board_mutex_);
  DLSCHED_EXPECT(done_count_ == shards_.size(),
                 "coordinator: take_results before every shard finished");
  std::vector<experiments::ShardResult> results;
  results.reserve(results_.size());
  for (std::optional<experiments::ShardResult>& result : results_) {
    results.push_back(std::move(*result));
    result.reset();
  }
  return results;
}

std::vector<obs::ProcessTrace> Coordinator::take_worker_traces() {
  const std::lock_guard<std::mutex> lock(trace_mutex_);
  std::vector<obs::ProcessTrace> traces;
  traces.swap(worker_traces_);
  return traces;
}

void Coordinator::request_retire(std::size_t count) {
  const std::lock_guard<std::mutex> lock(board_mutex_);
  retire_credits_ += count;
}

void Coordinator::note_worker_spawned() {
  const std::lock_guard<std::mutex> lock(board_mutex_);
  ++gauges_.workers_spawned;
  publish_gauges_locked();
}

// --------------------------------------------------------------- the board --

void Coordinator::sweep_expired_locked() {
  const auto now = std::chrono::steady_clock::now();
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::Leased && slot.deadline < now) {
      // The holder stopped renewing: the lease re-pends and the next
      // Acquire is granted it.  A late FragmentPush from the original
      // holder still competes -- first accepted push wins.
      slot.state = SlotState::Pending;
      slot.holder.clear();
      ++slot.reassignments;
      ++gauges_.lease_reassignments;
    }
  }
}

void Coordinator::publish_gauges_locked() {
  std::size_t backlog = 0;
  std::size_t leased = 0;
  for (const Slot& slot : slots_) {
    if (slot.state == SlotState::Pending) ++backlog;
    if (slot.state == SlotState::Leased) ++leased;
  }
  gauges_.shard_backlog = backlog;
  gauges_.leases_outstanding = leased;
  gauges_.shards_done = done_count_;
  stats_.set_board(gauges_);
}

std::string Coordinator::drain_frame() const {
  return encode_frame(FrameType::Drain, "coordinator is draining");
}

std::string Coordinator::handle_lease_payload(const std::string& payload) {
  LeaseRequestBody request;
  try {
    request = decode_lease_request(payload);
  } catch (const std::exception& e) {
    stats_.on_protocol_error();
    return encode_frame(FrameType::ProtocolError, e.what());
  }

  if (request.kind == LeaseRequestBody::Kind::Renew) {
    const std::lock_guard<std::mutex> lock(board_mutex_);
    if (draining_) return drain_frame();
    AckBody ack;
    if (request.shard_index < slots_.size() &&
        slots_[request.shard_index].state == SlotState::Leased &&
        slots_[request.shard_index].holder == request.worker_id &&
        shards_[request.shard_index].id == request.shard_id) {
      slots_[request.shard_index].deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(config_.lease_ttl_seconds));
      ack.ok = true;
      ack.message = "renewed";
    } else {
      ack.ok = false;
      ack.message = "lease not held (expired and reassigned?)";
    }
    return encode_frame(FrameType::Ack, encode_ack(ack));
  }

  // Acquire: sweep, maybe retire, then grant the first pending shard in
  // planner order.  The grant's cached records are gathered outside the
  // board lock -- the lease deadline is already running, and cache reads
  // have their own lock.
  std::size_t grant_index = 0;
  bool granted = false;
  {
    const std::lock_guard<std::mutex> lock(board_mutex_);
    if (draining_) return drain_frame();
    sweep_expired_locked();
    if (request.retirable && retire_credits_ > 0) {
      --retire_credits_;
      ++gauges_.workers_retired;
      publish_gauges_locked();
      LeaseGrantBody grant;
      grant.kind = LeaseGrantBody::Kind::Retire;
      return encode_frame(FrameType::LeaseGrant, encode_lease_grant(grant));
    }
    if (done_count_ == shards_.size()) {
      LeaseGrantBody grant;
      grant.kind = LeaseGrantBody::Kind::Done;
      return encode_frame(FrameType::LeaseGrant, encode_lease_grant(grant));
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].state != SlotState::Pending) continue;
      slots_[i].state = SlotState::Leased;
      slots_[i].holder = request.worker_id;
      slots_[i].deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(config_.lease_ttl_seconds));
      grant_index = i;
      granted = true;
      break;
    }
    publish_gauges_locked();
    if (!granted) {
      LeaseGrantBody grant;
      grant.kind = LeaseGrantBody::Kind::Wait;
      grant.retry_after_ms = config_.wait_retry_ms;
      return encode_frame(FrameType::LeaseGrant, encode_lease_grant(grant));
    }
  }

  const experiments::CompiledShard& shard = shards_[grant_index];
  obs::ObsSpan grant_span("lease", "grant");
  if (grant_span.active()) grant_span.rename("grant:" + shard.id);
  LeaseGrantBody grant;
  grant.kind = LeaseGrantBody::Kind::Work;
  grant.shard_index = shard.index;
  grant.shard_id = shard.id;
  grant.plan_fingerprint = fingerprint_;
  grant.lease_ttl_seconds = config_.lease_ttl_seconds;
  // A tracing coordinator asks its workers to trace too; they ship the
  // spans back inside each FragmentPush.
  grant.traced = obs::Tracer::instance().enabled();
  grant.spec_toml = spec_toml_;
  {
    // Warm records: whatever the coordinator's cache already holds for
    // the shard's jobs.  The worker seeds its scratch cache with these,
    // so its rows replay the cached numbers exactly as a local run would.
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const experiments::GridCell& cell : shard.cells) {
      for (const experiments::GridSlot& slot : cell.slots) {
        WireCacheEntry entry;
        entry.key = job_canonical_key(slot.solver, cell.request);
        entry.hash = slot.job_hash;
        if (const std::optional<experiments::CachedSolve> hit =
                cache_.lookup(entry.hash, entry.key)) {
          entry.body = encode_result_body(*hit);
          grant.records.push_back(std::move(entry));
        }
      }
    }
  }
  return encode_frame(FrameType::LeaseGrant, encode_lease_grant(grant));
}

std::string Coordinator::handle_fragment_payload(
    const std::string& payload) {
  FragmentPushBody push;
  try {
    push = decode_fragment_push(payload);
  } catch (const std::exception& e) {
    stats_.on_protocol_error();
    return encode_frame(FrameType::ProtocolError, e.what());
  }

  const auto refuse = [this, &payload](const std::string& why) {
    AckBody ack;
    ack.ok = false;
    ack.message = why;
    {
      const std::lock_guard<std::mutex> lock(board_mutex_);
      ++gauges_.fragments_discarded;
      publish_gauges_locked();
    }
    (void)payload;
    return encode_frame(FrameType::Ack, encode_ack(ack));
  };

  if (push.shard_index >= shards_.size() ||
      shards_[push.shard_index].id != push.shard_id) {
    return refuse("unknown shard (stale plan?)");
  }
  if (push.plan_fingerprint != fingerprint_) {
    return refuse("plan fingerprint mismatch");
  }
  const std::optional<experiments::ShardResult> result =
      experiments::parse_shard_result(push.fragment);
  if (!result || result->index != push.shard_index ||
      result->id != push.shard_id) {
    return refuse("corrupt fragment");
  }

  // Claim the commit under the board lock (exactly-once: duplicates and
  // late pushes from expired leases lose here), then store the records
  // *before* the shard counts as done -- `finished()` implies the cache
  // already holds every accepted shard's solves.
  obs::ObsSpan commit_span("lease", "commit");
  if (commit_span.active()) commit_span.rename("commit:" + push.shard_id);
  {
    const std::lock_guard<std::mutex> lock(board_mutex_);
    Slot& slot = slots_[push.shard_index];
    if (slot.state == SlotState::Done ||
        slot.state == SlotState::Committing) {
      ++gauges_.fragments_discarded;
      publish_gauges_locked();
      AckBody ack;
      ack.ok = true;
      ack.message = "duplicate";
      return encode_frame(FrameType::Ack, encode_ack(ack));
    }
    slot.state = SlotState::Committing;
    slot.holder = push.worker_id;
  }
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    for (const WireCacheEntry& entry : push.records) {
      try {
        cache_.store(entry.hash, entry.key,
                     decode_result_body(entry.body));
      } catch (const std::exception&) {
        // A malformed record degrades to a future cache miss, exactly
        // like a torn entry file; the fragment's rows are still good.
      }
    }
  }
  {
    const std::lock_guard<std::mutex> lock(board_mutex_);
    slots_[push.shard_index].state = SlotState::Done;
    results_[push.shard_index] = std::move(*result);
    ++done_count_;
    gauges_.fragment_bytes += payload.size();
    publish_gauges_locked();
  }
  done_cv_.notify_all();
  if (!push.trace.empty()) {
    // The worker's spans since its previous push.  Best effort: a
    // corrupt section only costs its spans, never the fragment.
    try {
      obs::ProcessTrace trace = obs::decode_trace(push.trace);
      const std::lock_guard<std::mutex> lock(trace_mutex_);
      obs::merge_process_trace(worker_traces_, std::move(trace));
    } catch (const std::exception&) {
    }
  }
  AckBody ack;
  ack.ok = true;
  ack.message = "accepted";
  return encode_frame(FrameType::Ack, encode_ack(ack));
}

}  // namespace dlsched::service
