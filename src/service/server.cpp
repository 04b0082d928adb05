#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/trace.hpp"
#include "service/net.hpp"
#include "util/error.hpp"

namespace dlsched::service {

// The framed-write loop lives in service/net.hpp now, shared with the
// cluster coordinator and the TCP workers.
using net::send_all;

Server::Server(ServerConfig config) : config_(std::move(config)) {
  DLSCHED_EXPECT(!config_.socket_path.empty(), "serve: empty socket path");
  DLSCHED_EXPECT(config_.queue_capacity > 0, "serve: zero queue capacity");
  DLSCHED_EXPECT(config_.batch_max > 0, "serve: zero batch size");
  if (!config_.cache_dir.empty()) {
    cache_ = experiments::ResultCache(config_.cache_dir);
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DLSCHED_EXPECT(config_.socket_path.size() < sizeof(addr.sun_path),
                 "serve: socket path too long for AF_UNIX ('" +
                     config_.socket_path + "')");
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DLSCHED_EXPECT(listen_fd_ >= 0, "serve: cannot create socket");
  // A previous daemon's socket file would make bind fail; a *live*
  // daemon is beyond this process's knowledge, so last-one-wins.
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    DLSCHED_FAIL("serve: cannot listen on '" + config_.socket_path +
                 "': " + std::strerror(err));
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
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

  // Stop accepting first so no connection thread is born mid-teardown.
  accept_stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();

  // The batcher exits once draining and empty; every queued request has
  // been answered by then.
  if (batcher_thread_.joinable()) batcher_thread_.join();

  // Unblock connection readers (their clients may keep the socket open)
  // and collect them.
  std::vector<std::thread> connections;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    connections.swap(connection_threads_);
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(config_.socket_path.c_str());
}

// ------------------------------------------------------------ accept side --

void Server::accept_loop() {
  while (!accept_stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(
        [this, fd] { handle_connection(fd); });
  }
}

void Server::handle_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or shutdown() during stop
    buffer.append(chunk, static_cast<std::size_t>(n));
    // Drain every complete frame in the buffer; a malformed prefix ends
    // the connection (after a ProtocolError reply) because framing can
    // no longer be trusted.
    for (;;) {
      const FrameDecode decode = try_decode_frame(buffer);
      if (decode.status == DecodeStatus::NeedMore) break;
      if (decode.status != DecodeStatus::Ok) {
        stats_.on_protocol_error();
        (void)send_all(fd,
                       encode_frame(FrameType::ProtocolError, decode.error));
        open = false;
        break;
      }
      buffer.erase(0, decode.consumed);
      std::string reply;
      switch (decode.frame.type) {
        case FrameType::SolveRequest:
          reply = handle_solve_payload(decode.frame.payload);
          break;
        case FrameType::StatsQuery:
          reply = encode_frame(FrameType::StatsReport,
                               stats_.render_json());
          break;
        default:
          stats_.on_protocol_error();
          reply = encode_frame(
              FrameType::ProtocolError,
              "unexpected client frame type " +
                  std::to_string(static_cast<int>(decode.frame.type)));
          open = false;
          break;
      }
      if (!send_all(fd, reply)) {
        open = false;
        break;
      }
    }
  }
  // Forget the fd before closing it: once closed, its number may be
  // reused by any socket in the process, and stop() must never
  // shutdown() that one.
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    std::erase(connection_fds_, fd);
  }
  ::close(fd);
}

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
