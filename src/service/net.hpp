// Shared SOCK_STREAM plumbing for the service layer.
//
// The daemon (server.cpp), the cluster coordinator (coordinator.cpp), the
// TCP workers (worker.cpp) and the blocking client (client.cpp) all speak
// the same framed protocol over either an AF_UNIX socket or TCP; this
// header owns the endpoint grammar and the few syscall loops they share
// so the retry/EINTR/partial-write handling exists once.
//
// Endpoint grammar:
//   * `tcp://host:port` or bare `host:port` -- a TCP endpoint (the bare
//     form is what `--coordinator 127.0.0.1:7070` passes).
//   * anything else -- an AF_UNIX socket path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "service/wire.hpp"

namespace dlsched::service::net {

struct Endpoint {
  bool tcp = false;
  std::string host;        ///< TCP only
  std::uint16_t port = 0;  ///< TCP only
  std::string path;        ///< AF_UNIX only
  [[nodiscard]] std::string describe() const;
};

/// Parses the endpoint grammar above; throws `dlsched::Error` on a
/// malformed TCP form (missing or non-numeric port).
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

/// Connects a blocking stream socket to the endpoint; returns the fd.
/// Throws `dlsched::Error` (with errno text) when the peer is not there.
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint);

/// Binds + listens a TCP socket on `host:port` (port 0 = ephemeral) and
/// returns the fd; `bound_port` receives the actual port.  Throws on
/// failure.
[[nodiscard]] int listen_tcp(const std::string& host, std::uint16_t port,
                             std::uint16_t& bound_port);

/// Binds + listens an AF_UNIX socket at `path`, replacing a stale socket
/// file there, and returns the fd.  Throws on failure.
[[nodiscard]] int listen_unix(const std::string& path);

/// Writes all of `bytes`, riding out EINTR and partial writes with
/// MSG_NOSIGNAL; returns false when the peer is gone.
[[nodiscard]] bool send_all(int fd, std::string_view bytes);

/// Reads one complete frame from `fd`, appending to `buffer` (which may
/// already hold a partial next frame).  Throws `dlsched::Error` on EOF or
/// a malformed frame, prefixed with `who`.
[[nodiscard]] Frame read_frame(int fd, std::string& buffer, const char* who);

}  // namespace dlsched::service::net
