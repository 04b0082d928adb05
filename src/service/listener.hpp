// The framed connection listener shared by the daemon (service/server.hpp)
// and the cluster coordinator (service/coordinator.hpp).
//
// A `FramedListener` owns a bound, listening socket, the accept thread and
// one thread per connection.  Every connection runs the same loop: read,
// split complete frames off the buffer (service/wire.hpp), answer each one
// through the owner's frame-type handler table, write the reply back.  The
// listener answers StatsQuery itself from the owner's `ServiceStats`.  Bad
// framing, or a frame type the table does not name, gets a ProtocolError
// reply and then the connection is closed: once framing cannot be trusted,
// nothing later on that stream can be.
//
// A finished connection's thread is joined by the accept thread before it
// takes the next connection, so a long-lived listener holds the threads of
// its live connections and at most one finished one.  `stop()` shuts the
// listening socket down, which wakes the accept thread at once, lets every
// connection finish the reply it is sending, then joins every thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "service/stats.hpp"
#include "service/wire.hpp"

namespace dlsched::service {

/// Answers one frame payload with one encoded reply frame.  Runs on the
/// connection's thread, concurrently with other connections' handlers.
using FrameHandler = std::function<std::string(const std::string& payload)>;

class FramedListener {
 public:
  /// Takes ownership of `listen_fd`, a bound and listening stream socket.
  /// No thread runs until `start()`; connects made before it wait in the
  /// listen backlog.
  FramedListener(int listen_fd, ServiceStats& stats,
                 std::map<FrameType, FrameHandler> handlers);
  ~FramedListener();

  FramedListener(const FramedListener&) = delete;
  FramedListener& operator=(const FramedListener&) = delete;

  /// Spawns the accept thread.
  void start();

  /// Stops accepting and reading, waits (up to a second) for replies
  /// being sent, shuts every connection down, joins every thread and
  /// closes the listening socket.  Idempotent; the destructor calls it.
  void stop();

 private:
  struct Connection {
    int fd = -1;            ///< -1 once the connection thread closed it
    bool finished = false;  ///< the thread is done; the next accept joins it
    std::thread thread;
  };

  void accept_loop();
  void serve(Connection& connection, int fd);
  /// The reply to one well-framed frame; clears `open` when the
  /// connection must close after the reply is sent.
  [[nodiscard]] std::string dispatch(const Frame& frame, bool& open);

  int listen_fd_;
  ServiceStats& stats_;
  std::map<FrameType, FrameHandler> handlers_;

  std::mutex conn_mutex_;
  std::list<Connection> connections_;  // guarded by conn_mutex_
  std::condition_variable finished_cv_;  // a connection finished
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  bool stopped_ = false;  // stop() ran (owner's thread only)
};

}  // namespace dlsched::service
