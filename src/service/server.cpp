#include "service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "service/net.hpp"
#include "util/error.hpp"

namespace dlsched::service {

namespace {

/// The longest backoff the daemon may advertise: an hour.  Clients sleep
/// for it, so it must stay in range of a clock-tick conversion.
constexpr double kMaxDelayMs = 3'600'000.0;

/// Checks the admission knobs, then binds the daemon's socket.  A negative
/// `retry_after_ms` would read as the drain's do-not-retry marker.
int bind_daemon_socket(const ServerConfig& config) {
  DLSCHED_EXPECT(config.queue_capacity > 0, "serve: zero queue capacity");
  DLSCHED_EXPECT(config.batch_max > 0, "serve: zero batch size");
  const double retry = config.retry_after_ms;
  if (!std::isfinite(retry) || retry < 0.0 || retry > kMaxDelayMs) {
    std::ostringstream message;
    message << "serve: retry_after_ms must be a number of milliseconds in "
               "[0, 3600000], got "
            << retry;
    DLSCHED_FAIL(message.str());
  }
  return net::listen_unix(config.socket_path);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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
    const std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  stats_.set_draining(true);
  queue_cv_.notify_all();
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;

  begin_drain();

  // The batcher exits once draining and empty; every queued job has
  // answered every request that joined it by then, and a draining daemon
  // admits nothing new, so no connection thread is left waiting on it.
  if (batcher_thread_.joinable()) batcher_thread_.join();

  listener_.stop();
  ::unlink(config_.socket_path.c_str());
}

// --------------------------------------------------------- admission side --

std::string Server::handle_solve_payload(const std::string& payload) {
  obs::ObsSpan admit_span("daemon", "admit");
  const auto admitted_at = std::chrono::steady_clock::now();
  WireRequest wire;
  try {
    wire = decode_request_body(payload);
  } catch (const std::exception& e) {
    stats_.on_protocol_error();
    return encode_frame(FrameType::ProtocolError, e.what());
  }
  std::string key = job_canonical_key(wire.solver, wire.request);
  std::string hash = job_hash_from_key(key);
  const auto reject = [this](double retry_after_ms, const char* reason) {
    stats_.on_rejected();
    return encode_frame(FrameType::Reject,
                        encode_reject_body({retry_after_ms, reason}));
  };

  // Admission ends in a reject, an answer to send at once (a live job's
  // body or a stored record) or a reply to wait for.
  std::optional<std::string> body;
  std::optional<SolveRecord> stored;
  std::future<std::string> reply;
  bool opened = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // A draining daemon refuses every solve request -- even would-be cache
    // hits -- so clients migrate away instead of trickling in forever; the
    // stats mailbox stays queryable.
    if (draining_) return reject(-1.0, "daemon is draining");
    // Live?  Else on disk?  Else open a job.
    auto live = live_.find(key);
    if (live == live_.end() && !(stored = cache_.lookup(hash, key))) {
      if (queue_.size() >= config_.queue_capacity) {
        return reject(config_.retry_after_ms, "admission queue full");
      }
      live = live_.emplace(std::move(key),
                           Job{std::move(wire), std::move(hash), {}, {}})
                 .first;
      queue_.push_back(live);
      opened = true;
    }
    if (live != live_.end() && live->second.body) {
      body = *live->second.body;
    } else if (live != live_.end()) {
      reply = live->second.waiters.emplace_back(Waiter{admitted_at, {}})
                  .reply.get_future();
    }
    stats_.on_admitted(opened);
  }

  // A stored record re-encodes to the bytes its solve was answered with.
  if (stored) body = encode_result_body(*stored);
  if (body) {
    stats_.on_completed(ServiceStats::Completion::CacheHit,
                        seconds_since(admitted_at));
    return encode_frame(FrameType::SolveResult, *body);
  }
  if (opened) queue_cv_.notify_one();
  // Close the admission span before blocking on the batcher: the wait is
  // the batch/settle spans' time, not admission's.
  admit_span.finish();
  return reply.get();
}

// ----------------------------------------------------------- batcher side --

void Server::batcher_loop() {
  for (;;) {
    std::vector<LiveJobs::iterator> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and drained
      const std::size_t take = std::min(queue_.size(), config_.batch_max);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
    }
    stats_.on_batch_started(batch.size());
    run_batch(batch);
  }
}

void Server::run_batch(const std::vector<LiveJobs::iterator>& batch) {
  obs::ObsSpan batch_span("daemon", "batch");
  if (batch_span.active()) {
    batch_span.rename("batch:" + std::to_string(batch.size()));
  }
  std::vector<BatchJobView> views;
  views.reserve(batch.size());
  for (const LiveJobs::iterator& job : batch) {
    views.push_back(
        {job->second.wire.solver, &job->second.wire.request, job->second.hash});
  }

  // The hook answers every request waiting on a job the moment its outcome
  // is final, all with the same bytes; a request that joins the job later
  // takes them from `body`.  It keeps the record for the store below: the
  // hook runs under solve_batch's progress mutex, where a disk write would
  // hold back the other lanes' replies.  A job solve_batch folds onto a
  // hash twin (a distinct key) is never answered: its requests lose their
  // connection when it retires, rather than take the twin's answer.
  std::vector<std::optional<SolveRecord>> answered(batch.size());
  const BatchProgressHook hook = [&](const BatchProgress& progress,
                                     const BatchOutcome& outcome) {
    Job& job = batch[progress.job_index]->second;
    SolveRecord record = record_from_outcome(outcome);
    std::string body = encode_result_body(record);
    const std::string frame = encode_frame(FrameType::SolveResult, body);
    std::vector<Waiter> waiters;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.body = std::move(body);
      waiters.swap(job.waiters);
    }
    const obs::ObsSpan settle_span("daemon", "settle");
    for (std::size_t w = 0; w < waiters.size(); ++w) {
      stats_.on_completed(w == 0 ? ServiceStats::Completion::Solved
                                 : ServiceStats::Completion::Deduped,
                          seconds_since(waiters[w].admitted_at));
      waiters[w].reply.set_value(frame);
    }
    answered[progress.job_index] = std::move(record);
    return true;
  };
  (void)solve_batch(std::span<const BatchJobView>(views),
                    config_.solve_threads, hook);

  // Store every answered record after its reply, and retire its job in the
  // same critical section: a repeat admitted before it finds the live
  // job's body, one admitted after finds the stored record, so it is never
  // solved again.  The record round-trips bit-exactly, so a later cache
  // hit re-encodes to the bytes sent: cold and warm answers are
  // byte-identical.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (answered[i]) {
        try {
          cache_.store(batch[i]->second.hash, batch[i]->first, *answered[i]);
        } catch (const std::exception&) {
          // The cache is an accelerator; a full disk must not fail the solve.
        }
      }
      live_.erase(batch[i]);
    }
  }
  stats_.on_batch_finished(batch.size());
}

}  // namespace dlsched::service
