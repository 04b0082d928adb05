#include "service/listener.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "service/net.hpp"

namespace dlsched::service {

namespace {

/// How long `stop()` waits for connections to finish the replies they are
/// sending before it cuts them off.
constexpr std::chrono::seconds kReplyGrace{1};

}  // namespace

FramedListener::FramedListener(int listen_fd, ServiceStats& stats,
                               std::map<FrameType, FrameHandler> handlers)
    : listen_fd_(listen_fd), stats_(stats), handlers_(std::move(handlers)) {}

FramedListener::~FramedListener() { stop(); }

void FramedListener::start() {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void FramedListener::stop() {
  if (stopped_) return;
  stopped_ = true;

  // Shutting the listening socket down wakes the accept thread's poll()
  // at once, so stop() never waits out a poll tick.
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Stop reading first: an idle connection sees end-of-stream at once,
  // while one that is answering a frame still delivers its reply (the Ack
  // of a worker's last FragmentPush, say).  A peer that will not take its
  // reply is cut off once the grace period is over.
  {
    std::unique_lock<std::mutex> lock(conn_mutex_);
    for (const Connection& connection : connections_) {
      if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RD);
    }
    const bool all_finished = finished_cv_.wait_for(lock, kReplyGrace, [this] {
      return std::all_of(connections_.begin(), connections_.end(),
                         [](const Connection& c) { return c.finished; });
    });
    if (!all_finished) {
      for (const Connection& connection : connections_) {
        if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
      }
    }
  }
  // The list no longer changes shape: only the accept thread adds or
  // erases entries.
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();

  ::close(listen_fd_);
}

void FramedListener::accept_loop() {
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/-1);
    if (stopping_.load()) return;
    if (ready <= 0) continue;  // EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    // Join the connections that finished since the last accept; their
    // threads have left the lock for good, so the joins are immediate.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->finished) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread =
        std::thread([this, &connection, fd] { serve(connection, fd); });
  }
}

void FramedListener::serve(Connection& connection, int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    // Peer closed, or shutdown() during stop.  A peer that dies mid-frame
    // leaves a partial frame in the buffer; its length prefix never
    // completes, so the bytes are simply dropped with the connection.
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    for (;;) {
      const FrameDecode decode = try_decode_frame(buffer);
      if (decode.status == DecodeStatus::NeedMore) break;
      std::string reply;
      if (decode.status == DecodeStatus::Ok) {
        buffer.erase(0, decode.consumed);
        reply = dispatch(decode.frame, open);
      } else {
        stats_.on_protocol_error();
        reply = encode_frame(FrameType::ProtocolError, decode.error);
        open = false;
      }
      if (!net::send_all(fd, reply)) open = false;
      if (!open) break;
    }
  }
  // Forget the fd before closing it: once closed, its number may be
  // reused by any socket in the process, and stop() must never
  // shutdown() that one.
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  connection.fd = -1;
  ::close(fd);
  connection.finished = true;
  finished_cv_.notify_all();
}

std::string FramedListener::dispatch(const Frame& frame, bool& open) {
  if (frame.type == FrameType::StatsQuery) {
    return encode_frame(FrameType::StatsReport, stats_.render_json());
  }
  const auto handler = handlers_.find(frame.type);
  if (handler == handlers_.end()) {
    stats_.on_protocol_error();
    open = false;
    return encode_frame(FrameType::ProtocolError,
                        "unexpected frame type " +
                            std::to_string(static_cast<int>(frame.type)));
  }
  try {
    return handler->second(frame.payload);
  } catch (const std::exception& e) {
    // A failing handler costs its connection, never the process.
    open = false;
    return encode_frame(FrameType::ProtocolError,
                        std::string("internal error: ") + e.what());
  }
}

}  // namespace dlsched::service
