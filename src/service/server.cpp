#include "service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "service/net.hpp"
#include "util/error.hpp"

namespace dlsched::service {

namespace {

/// Checks the admission knobs, then binds the daemon's socket.
int bind_daemon_socket(const ServerConfig& config) {
  DLSCHED_EXPECT(config.queue_capacity > 0, "serve: zero queue capacity");
  DLSCHED_EXPECT(config.batch_max > 0, "serve: zero batch size");
  return net::listen_unix(config.socket_path);
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_dir.empty()
                 ? experiments::ResultCache()
                 : experiments::ResultCache(config_.cache_dir)),
      listener_(bind_daemon_socket(config_), stats_,
                {{FrameType::SolveRequest,
                  [this](const std::string& payload) {
                    return handle_solve_payload(payload);
                  }}}) {
  listener_.start();
  batcher_thread_ = std::thread([this] { batcher_loop(); });
}

Server::~Server() { stop(); }

void Server::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  stats_.set_draining(true);
  queue_cv_.notify_all();
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;

  begin_drain();

  // The batcher exits once draining and empty; every queued request has
  // been answered by then, and a draining daemon queues nothing new, so
  // no connection thread is left waiting on it.
  if (batcher_thread_.joinable()) batcher_thread_.join();

  listener_.stop();
  ::unlink(config_.socket_path.c_str());
}

// --------------------------------------------------------- admission side --

std::string Server::handle_solve_payload(const std::string& payload) {
  obs::ObsSpan admit_span("daemon", "admit");
  const auto admitted_at = std::chrono::steady_clock::now();
  auto pending = std::make_unique<Pending>();
  try {
    pending->wire = decode_request_body(payload);
  } catch (const std::exception& e) {
    stats_.on_protocol_error();
    return encode_frame(FrameType::ProtocolError, e.what());
  }
  pending->key = job_canonical_key(pending->wire.solver,
                                   pending->wire.request);
  pending->hash = job_hash_from_key(pending->key);
  pending->admitted_at = admitted_at;

  // A draining daemon refuses every solve request -- even would-be cache
  // hits -- so clients migrate away instead of trickling in forever; the
  // stats mailbox stays queryable.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (draining_) {
      stats_.on_rejected();
      return encode_frame(
          FrameType::Reject,
          encode_reject_body({-1.0, "daemon is draining"}));
    }
  }

  // Cache short-circuit: repeat queries never touch the queue.  The
  // stored body is the bytes the original solve was answered with.
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (std::optional<SolveRecord> hit =
            cache_.lookup(pending->hash, pending->key)) {
      stats_.on_admitted();
      stats_.on_batch_started(1);  // bookkeeping: leaves `queued` at once
      const double latency =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        admitted_at)
              .count();
      stats_.on_completed(ServiceStats::Completion::CacheHit, latency);
      stats_.on_batch_finished(1);
      return encode_frame(FrameType::SolveResult,
                          encode_result_body(*hit));
    }
  }

  std::future<std::string> response = pending->response.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (draining_) {
      lock.unlock();
      stats_.on_rejected();
      return encode_frame(
          FrameType::Reject,
          encode_reject_body({-1.0, "daemon is draining"}));
    }
    if (queue_.size() >= config_.queue_capacity) {
      lock.unlock();
      stats_.on_rejected();
      return encode_frame(
          FrameType::Reject,
          encode_reject_body(
              {config_.retry_after_ms, "admission queue full"}));
    }
    queue_.push_back(std::move(pending));
  }
  stats_.on_admitted();
  queue_cv_.notify_one();
  // Close the admission span before blocking on the batcher: the wait is
  // the batch/settle spans' time, not admission's.
  admit_span.finish();
  return response.get();
}

// ----------------------------------------------------------- batcher side --

void Server::batcher_loop() {
  const auto wait = std::chrono::duration<double, std::milli>(
      config_.batch_wait_ms);
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and drained
      // Gather window: give concurrent clients a moment to land in the
      // same micro-batch (that is where dedupe and pool sharing pay).
      if (queue_.size() < config_.batch_max && config_.batch_wait_ms > 0) {
        queue_cv_.wait_for(lock, wait, [this] {
          return queue_.size() >= config_.batch_max;
        });
      }
      const std::size_t take = std::min(queue_.size(), config_.batch_max);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    stats_.on_batch_started(batch.size());
    run_batch(std::move(batch));
  }
}

void Server::run_batch(std::vector<std::unique_ptr<Pending>> batch) {
  obs::ObsSpan batch_span("daemon", "batch");
  if (batch_span.active()) {
    batch_span.rename("batch:" + std::to_string(batch.size()));
  }
  const auto settle = [&](Pending& pending, const std::string& frame,
                          ServiceStats::Completion kind) {
    if (pending.fulfilled) return;
    const obs::ObsSpan settle_span("daemon", "settle");
    pending.fulfilled = true;
    const double latency =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pending.admitted_at)
            .count();
    stats_.on_completed(kind, latency);
    pending.response.set_value(frame);
  };

  // Batch-time cache re-check.  The admission-time lookup runs before an
  // identical in-flight request finishes, so a duplicate can slip into a
  // *later* batch than its twin; because batches run serially, that twin
  // has stored its record by the time this batch starts, and the re-check
  // answers the duplicate with the twin's exact bytes instead of solving
  // it again.  After this pass, identical requests are byte-identical
  // answers in every interleaving: same batch via dedupe, earlier batch
  // via this lookup, earlier response via the admission-time lookup.
  std::vector<std::size_t> live;  // batch indices that still need solving
  live.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::optional<SolveRecord> hit;
    {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      hit = cache_.lookup(batch[i]->hash, batch[i]->key);
    }
    if (hit) {
      settle(*batch[i],
             encode_frame(FrameType::SolveResult, encode_result_body(*hit)),
             ServiceStats::Completion::CacheHit);
    } else {
      live.push_back(i);
    }
  }

  std::vector<BatchJobView> views;
  views.reserve(live.size());
  for (const std::size_t i : live) {
    views.push_back(
        {batch[i]->wire.solver, &batch[i]->wire.request, batch[i]->hash});
  }

  // The hook answers a primary AND its deduped followers the moment the
  // primary's outcome is final -- all with the primary's bytes, so
  // concurrent identical requests are answered identically.
  const BatchProgressHook hook = [&](const BatchProgress& progress,
                                     const BatchOutcome& outcome) {
    Pending& primary = *batch[live[progress.job_index]];
    const SolveRecord record = record_from_outcome(outcome);
    // The record round-trips bit-exactly, so a later cache hit re-encodes
    // to these same bytes: cold and warm answers are byte-identical.
    const std::string body = encode_result_body(record);
    try {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      cache_.store(primary.hash, primary.key, record);
    } catch (const std::exception&) {
      // The cache is an accelerator; a full disk must not fail the solve.
    }
    const std::string frame = encode_frame(FrameType::SolveResult, body);
    settle(primary, frame, ServiceStats::Completion::Solved);
    for (const std::size_t follower : progress.duplicates) {
      settle(*batch[live[follower]], frame,
             ServiceStats::Completion::Deduped);
    }
    return true;
  };

  const std::vector<BatchOutcome> outcomes =
      solve_batch(std::span<const BatchJobView>(views),
                  config_.solve_threads, hook);

  // Belt and braces: anything the hook did not settle (it settles every
  // job today) is answered from the joined outcomes so no client hangs.
  for (std::size_t v = 0; v < live.size(); ++v) {
    Pending& pending = *batch[live[v]];
    if (pending.fulfilled) continue;
    const std::string body =
        encode_result_body(record_from_outcome(outcomes[v]));
    settle(pending, encode_frame(FrameType::SolveResult, body),
           outcomes[v].deduped ? ServiceStats::Completion::Deduped
                               : ServiceStats::Completion::Solved);
  }
  stats_.on_batch_finished(batch.size());
}

}  // namespace dlsched::service
