// `dlsched_serve`: the scheduling daemon.
//
// A `Server` owns one AF_UNIX listening socket and answers wire-protocol
// frames (service/wire.hpp).  The request lifecycle:
//
//   accept -> decode frame -> admission -> micro-batch -> respond
//
//   * admission: one table of *live jobs*, keyed by the job's canonical
//     key, holds every job from its first request's admission until its
//     record is on disk.  A request identical to a live job joins it: it
//     waits for the job's reply, or takes it at once if the job is
//     already answered.  Otherwise a `ResultCache` hit answers it without
//     queueing, and fresh work opens a job in a *bounded* queue.  A full
//     queue (or a draining daemon) answers Reject-with-retry-after
//     immediately -- backpressure is explicit, clients never hang.  One
//     mutex guards the queue, the table and the cache, so "live? else on
//     disk? else enqueue" is a single critical section.
//   * micro-batching: one batcher thread takes the queued jobs (up to
//     `batch_max`) and runs them through `solve_batch`, so the solver
//     pool is shared.  It waits for nothing more: a lone request is solved
//     at once, and jobs that queue while a batch runs share the next one.
//   * responses are the encoded wire result body -- every request of a
//     job receives the *same bytes*.  Each reply is settled first; then,
//     before the batch returns, its record is stored to the cache and its
//     job retired in one critical section, so a daemon answer is
//     byte-identical to a direct `solve_batch` + cache round-trip of the
//     same request.
//
// Connections, framing and the stats mailbox (service/stats.hpp) belong
// to the shared `FramedListener` (service/listener.hpp); the daemon only
// supplies the SolveRequest handler.  Shutdown is a graceful drain: finish
// queued and in-flight work, refuse new requests, then close.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "experiments/cache.hpp"
#include "service/listener.hpp"
#include "service/stats.hpp"
#include "service/wire.hpp"

namespace dlsched::service {

struct ServerConfig {
  std::string socket_path;       ///< AF_UNIX path; replaced if stale
  std::size_t solve_threads = 0; ///< solve_batch pool (0 = hardware)
  std::size_t queue_capacity = 64;  ///< bounded admission queue
  std::size_t batch_max = 16;       ///< micro-batch size cap
  std::string cache_dir;            ///< ResultCache dir; empty = disabled
  double retry_after_ms = 25.0;     ///< advertised backpressure delay
};

class Server {
 public:
  /// Binds, listens and spawns the listener + batcher threads; throws
  /// `dlsched::Error` naming the field when a size is zero or
  /// `retry_after_ms` is negative, not finite or over an hour, and when
  /// the socket cannot be set up.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops admitting: every subsequent solve request (cache hit, live job
  /// or not) gets Reject with `retry_after_ms < 0`; queued and in-flight
  /// jobs still answer every request that joined them, and the stats
  /// mailbox keeps answering.
  void begin_drain();

  /// Graceful shutdown: drain, finish everything, close every
  /// connection, unlink the socket.  Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] StatsSnapshot stats() const { return stats_.snapshot(); }

 private:
  /// One request waiting for its job's reply.
  struct Waiter {
    std::chrono::steady_clock::time_point admitted_at;
    std::promise<std::string> reply;  ///< an encoded frame
  };

  /// A live job: its request, the requests waiting on it (the one that
  /// opened it first) and, once solved, the result body they were sent.
  struct Job {
    WireRequest wire;
    std::string hash;
    std::vector<Waiter> waiters;
    std::optional<std::string> body;
  };

  /// Keyed by canonical key, not hash: a hash collision must never hand
  /// one client another job's answer.  Iterators stay valid until erased.
  using LiveJobs = std::map<std::string, Job>;

  void batcher_loop();
  /// Decodes and admits one SolveRequest payload; returns the encoded
  /// response frame to write back.
  [[nodiscard]] std::string handle_solve_payload(const std::string& payload);
  void run_batch(const std::vector<LiveJobs::iterator>& batch);

  ServerConfig config_;
  ServiceStats stats_;

  std::mutex mutex_;
  std::condition_variable queue_cv_;
  LiveJobs live_;                              // guarded by mutex_
  std::deque<LiveJobs::iterator> queue_;       // guarded by mutex_
  experiments::ResultCache cache_;             // guarded by mutex_
  bool draining_ = false;                      // guarded by mutex_

  std::thread batcher_thread_;
  FramedListener listener_;  // last: its handler uses everything above

  bool stopped_ = false;  // stop() ran (main-thread use only)
};

}  // namespace dlsched::service
