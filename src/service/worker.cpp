#include "service/worker.hpp"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/cache.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec.hpp"
#include "obs/trace.hpp"
#include "service/net.hpp"
#include "service/wire.hpp"
#include "util/error.hpp"

namespace dlsched::service {

namespace {

namespace fs = std::filesystem;

/// A fresh private scratch-cache directory, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& worker_id) {
    std::random_device rd;
    const auto tag = static_cast<std::uint64_t>(rd()) << 32 |
                     static_cast<std::uint64_t>(::getpid());
    path_ = fs::temp_directory_path() /
            ("dlsched-worker-" + worker_id + "-" + std::to_string(tag));
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// The lease heartbeat: renews on its own connection every ttl/4 (floored
/// at 50ms) while a shard executes.  Every failure mode -- refused
/// renewal, drain, closed socket -- just stops the heartbeat: execution
/// continues and the coordinator's first-accepted-push-wins commit
/// resolves any race.
class LeaseRenewer {
 public:
  LeaseRenewer(net::Endpoint endpoint, std::string worker_id,
               std::size_t shard_index, std::string shard_id,
               double ttl_seconds)
      : endpoint_(std::move(endpoint)),
        worker_id_(std::move(worker_id)),
        shard_index_(shard_index),
        shard_id_(std::move(shard_id)),
        period_seconds_(ttl_seconds / 4.0 < 0.05 ? 0.05 : ttl_seconds / 4.0) {
    thread_ = std::thread([this] { loop(); });
  }
  ~LeaseRenewer() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    int fd = -1;
    try {
      fd = net::connect_endpoint(endpoint_);
    } catch (const std::exception&) {
      return;  // no heartbeat; the TTL race decides
    }
    std::string buffer;
    LeaseRequestBody renew;
    renew.kind = LeaseRequestBody::Kind::Renew;
    renew.worker_id = worker_id_;
    renew.shard_index = shard_index_;
    renew.shard_id = shard_id_;
    const std::string frame =
        encode_frame(FrameType::LeaseRequest, encode_lease_request(renew));
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_for(lock, std::chrono::duration<double>(period_seconds_),
                     [this] { return stop_; });
        if (stop_) break;
      }
      try {
        const obs::ObsSpan renew_span("lease", "renew");
        if (!net::send_all(fd, frame)) break;
        const Frame reply = net::read_frame(fd, buffer, "renewer");
        if (reply.type != FrameType::Ack) break;  // Drain, or junk
        if (!decode_ack(reply.payload).ok) break;  // lease lost
      } catch (const std::exception&) {
        break;
      }
    }
    ::close(fd);
  }

  net::Endpoint endpoint_;
  std::string worker_id_;
  std::size_t shard_index_;
  std::string shard_id_;
  double period_seconds_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// One shipped spec, parsed and re-planned once per fingerprint.
struct PlanEntry {
  experiments::ExperimentSpec spec;
  std::vector<experiments::CompiledShard> shards;
};

const PlanEntry& plan_for(std::map<std::string, PlanEntry>& plans,
                          const LeaseGrantBody& grant) {
  const auto it = plans.find(grant.plan_fingerprint);
  if (it != plans.end()) return it->second;
  PlanEntry entry;
  entry.spec = experiments::parse_spec_toml(grant.spec_toml,
                                            "<coordinator grant>");
  entry.shards = experiments::plan_shards(entry.spec);
  const std::string local = experiments::plan_fingerprint(entry.shards);
  // The one invariant everything downstream rests on: the worker's local
  // plan IS the coordinator's plan.  Disagreement means the spec did not
  // survive the wire bit-exactly (or the builds diverge) -- refuse loudly
  // rather than execute a shard whose identity is in doubt.
  DLSCHED_EXPECT(local == grant.plan_fingerprint,
                 "worker: plan fingerprint mismatch (coordinator " +
                     grant.plan_fingerprint + ", local " + local +
                     "); spec did not round-trip bit-exactly");
  return plans.emplace(grant.plan_fingerprint, std::move(entry))
      .first->second;
}

}  // namespace

TcpWorkerSummary run_tcp_worker(const TcpWorkerOptions& options,
                                std::ostream& log) {
  DLSCHED_EXPECT(!options.worker_id.empty(), "worker: empty worker id");
  const net::Endpoint endpoint = net::parse_endpoint(options.endpoint);
  const int fd = net::connect_endpoint(endpoint);
  const std::size_t threads = options.threads == 0 ? 1 : options.threads;

  std::optional<ScratchDir> owned_scratch;
  std::string scratch = options.scratch_dir;
  if (scratch.empty()) {
    owned_scratch.emplace(options.worker_id);
    scratch = owned_scratch->str();
  }
  experiments::ResultCache cache(scratch);

  TcpWorkerSummary summary;
  std::map<std::string, PlanEntry> plans;
  std::string buffer;

  LeaseRequestBody acquire;
  acquire.kind = LeaseRequestBody::Kind::Acquire;
  acquire.worker_id = options.worker_id;
  acquire.retirable = options.retirable;
  const std::string acquire_frame =
      encode_frame(FrameType::LeaseRequest, encode_lease_request(acquire));

  for (;;) {
    Frame reply;
    obs::ObsSpan acquire_span("lease", "acquire");
    try {
      DLSCHED_EXPECT(net::send_all(fd, acquire_frame),
                     "worker: coordinator connection lost");
      reply = net::read_frame(fd, buffer, "worker");
    } catch (const std::exception& e) {
      // A coordinator that went away (stop() shuts connections down) is
      // a drain, not a crash: the worker's job is simply over.
      log << "dlsched worker " << options.worker_id
          << ": coordinator gone (" << e.what() << "); exiting\n";
      summary.drained = true;
      break;
    }
    if (reply.type == FrameType::Drain) {
      log << "dlsched worker " << options.worker_id << ": drained ("
          << reply.payload << ")\n";
      summary.drained = true;
      break;
    }
    DLSCHED_EXPECT(reply.type == FrameType::LeaseGrant,
                   "worker: expected LeaseGrant, got frame type " +
                       std::to_string(static_cast<int>(reply.type)));
    const LeaseGrantBody grant = decode_lease_grant(reply.payload);
    // A tracing coordinator asks the fleet to trace: an independently
    // launched worker has no --trace flag, the grant is its switch.
    // (Forked local workers inherit an already-enabled tracer instead,
    // which also keeps their epoch on the coordinator's timeline.)
    if (grant.traced && !obs::Tracer::instance().enabled()) {
      obs::Tracer::instance().enable(options.worker_id);
    }
    if (acquire_span.active()) acquire_span.rename("acquire:" + grant.shard_id);
    acquire_span.finish();
    if (grant.kind == LeaseGrantBody::Kind::Wait) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(grant.retry_after_ms));
      continue;
    }
    if (grant.kind == LeaseGrantBody::Kind::Retire) {
      log << "dlsched worker " << options.worker_id << ": retired\n";
      summary.retired = true;
      break;
    }
    if (grant.kind == LeaseGrantBody::Kind::Done) {
      log << "dlsched worker " << options.worker_id << ": all shards done\n";
      break;
    }

    if (options.abandon_after > 0 &&
        summary.executed >= options.abandon_after) {
      // Chaos hook: die like a kill -9'd worker -- holding the freshly
      // granted lease, pushing nothing, renewing nothing.  The
      // coordinator must re-pend the shard once the lease TTL expires.
      log << "dlsched worker " << options.worker_id
          << ": abandoning the lease on shard " << grant.shard_index
          << " (" << grant.shard_id << ")\n";
      summary.abandoned = true;
      break;
    }

    // Work: re-plan, seed the scratch cache with the grant's records,
    // execute under a heartbeat, push the fragment plus fresh records.
    const PlanEntry& plan = plan_for(plans, grant);
    DLSCHED_EXPECT(grant.shard_index < plan.shards.size() &&
                       plan.shards[grant.shard_index].id == grant.shard_id,
                   "worker: grant names shard " + grant.shard_id +
                       " at index " + std::to_string(grant.shard_index) +
                       ", which is not in the local plan");
    const experiments::CompiledShard& shard = plan.shards[grant.shard_index];
    for (const WireCacheEntry& entry : grant.records) {
      cache.store(entry.hash, entry.key, decode_result_body(entry.body));
    }

    experiments::ShardResult result;
    {
      const LeaseRenewer renewer(endpoint, options.worker_id, shard.index,
                                 shard.id, grant.lease_ttl_seconds);
      result = experiments::execute_shard(plan.spec, shard, cache, threads);
    }

    obs::ObsSpan push_span("lease", "push");
    if (push_span.active()) push_span.rename("push:" + shard.id);
    FragmentPushBody push;
    push.worker_id = options.worker_id;
    push.shard_index = shard.index;
    push.shard_id = shard.id;
    push.plan_fingerprint = grant.plan_fingerprint;
    push.fragment = experiments::serialize_shard_result(result);
    for (const experiments::GridCell& cell : shard.cells) {
      for (const experiments::GridSlot& slot : cell.slots) {
        WireCacheEntry entry;
        entry.key = job_canonical_key(slot.solver, cell.request);
        entry.hash = slot.job_hash;
        if (const auto hit = cache.lookup(entry.hash, entry.key)) {
          entry.body = encode_result_body(*hit);
          push.records.push_back(std::move(entry));
        }
      }
    }

    // Everything recorded since the previous push (or since enable) rides
    // along inside this push; the coordinator folds it into the timeline.
    if (obs::Tracer::instance().enabled()) {
      push.trace = obs::encode_trace(obs::Tracer::instance().drain());
    }

    Frame ack_frame;
    try {
      DLSCHED_EXPECT(
          net::send_all(fd, encode_frame(FrameType::FragmentPush,
                                         encode_fragment_push(push))),
          "worker: coordinator connection lost");
      ack_frame = net::read_frame(fd, buffer, "worker");
    } catch (const std::exception& e) {
      log << "dlsched worker " << options.worker_id
          << ": coordinator gone mid-push (" << e.what() << "); exiting\n";
      summary.drained = true;
      break;
    }
    summary.jobs += result.jobs;
    summary.solved += result.solved;
    summary.cache_hits += result.cache_hits;
    DLSCHED_EXPECT(ack_frame.type == FrameType::Ack,
                   "worker: expected Ack for fragment push, got frame type " +
                       std::to_string(static_cast<int>(ack_frame.type)));
    const AckBody ack = decode_ack(ack_frame.payload);
    if (ack.ok && ack.message == "accepted") {
      ++summary.executed;
      log << "dlsched worker " << options.worker_id << ": shard "
          << shard.index << " (" << shard.id << ") accepted, "
          << result.jobs << " job(s), " << result.solved << " solved, "
          << result.cache_hits << " cache hit(s)\n";
    } else {
      ++summary.discarded;
      log << "dlsched worker " << options.worker_id << ": shard "
          << shard.index << " (" << shard.id
          << ") discarded by coordinator: " << ack.message << "\n";
    }
  }

  ::close(fd);
  return summary;
}

}  // namespace dlsched::service
