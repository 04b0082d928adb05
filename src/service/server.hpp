// `dlsched_serve`: the scheduling daemon.
//
// A `Server` owns one AF_UNIX listening socket and answers wire-protocol
// frames (service/wire.hpp).  The request lifecycle:
//
//   accept -> decode frame -> admission -> micro-batch -> respond
//
//   * admission: a `ResultCache` short-circuit answers repeat queries
//     without queueing; fresh work enters a *bounded* queue.  A full
//     queue (or a draining daemon) answers Reject-with-retry-after
//     immediately -- backpressure is explicit, clients never hang.
//   * micro-batching: one batcher thread gathers admitted requests (up
//     to `batch_max`, waiting `batch_wait_ms` after the first) and runs
//     them through `solve_batch`, so concurrent identical requests
//     collapse via within-batch dedupe and the solver pool is shared.
//   * responses are the encoded wire result body -- deduped followers
//     receive the *same bytes* as their primary, and every solve is
//     stored to the cache, so a daemon answer is byte-identical to a
//     direct `solve_batch` + cache round-trip of the same request.
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
#include <memory>
#include <mutex>
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
  double batch_wait_ms = 2.0;       ///< gather window after the first job
  std::string cache_dir;            ///< ResultCache dir; empty = disabled
  double retry_after_ms = 25.0;     ///< advertised backpressure delay
};

class Server {
 public:
  /// Binds, listens and spawns the listener + batcher threads; throws
  /// `dlsched::Error` when the socket cannot be set up.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops admitting: every subsequent solve request (cache hit or not)
  /// gets Reject with `retry_after_ms < 0`; queued and in-flight work
  /// still completes and the stats mailbox keeps answering.
  void begin_drain();

  /// Graceful shutdown: drain, finish everything, close every
  /// connection, unlink the socket.  Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] StatsSnapshot stats() const { return stats_.snapshot(); }

 private:
  struct Pending {
    WireRequest wire;
    std::string hash;
    std::string key;
    std::chrono::steady_clock::time_point admitted_at;
    std::promise<std::string> response;  ///< an encoded frame
    bool fulfilled = false;
  };

  void batcher_loop();
  /// Decodes and admits one SolveRequest payload; returns the encoded
  /// response frame to write back.
  [[nodiscard]] std::string handle_solve_payload(const std::string& payload);
  void run_batch(std::vector<std::unique_ptr<Pending>> batch);

  ServerConfig config_;
  ServiceStats stats_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;  // guarded by queue_mutex_
  bool draining_ = false;                       // guarded by queue_mutex_

  std::mutex cache_mutex_;
  experiments::ResultCache cache_;  // guarded by cache_mutex_

  std::thread batcher_thread_;
  FramedListener listener_;  // last: its handler uses everything above

  bool stopped_ = false;  // stop() ran (main-thread use only)
};

}  // namespace dlsched::service
