#include "service/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace dlsched::service::net {

std::string Endpoint::describe() const {
  if (tcp) return "tcp://" + host + ":" + std::to_string(port);
  return path;
}

Endpoint parse_endpoint(const std::string& text) {
  DLSCHED_EXPECT(!text.empty(), "endpoint: empty");
  Endpoint endpoint;
  std::string rest = text;
  bool forced_tcp = false;
  if (rest.rfind("tcp://", 0) == 0) {
    forced_tcp = true;
    rest = rest.substr(6);
  }
  const std::size_t colon = rest.rfind(':');
  const bool looks_tcp = forced_tcp || (colon != std::string::npos &&
                                        rest.find('/') == std::string::npos);
  if (!looks_tcp) {
    endpoint.path = text;
    return endpoint;
  }
  DLSCHED_EXPECT(colon != std::string::npos && colon > 0 &&
                     colon + 1 < rest.size(),
                 "endpoint '" + text + "': expected host:port");
  endpoint.tcp = true;
  endpoint.host = rest.substr(0, colon);
  const std::string port_text = rest.substr(colon + 1);
  try {
    std::size_t used = 0;
    const unsigned long port = std::stoul(port_text, &used);
    DLSCHED_EXPECT(used == port_text.size() && port <= 65535, "range");
    endpoint.port = static_cast<std::uint16_t>(port);
  } catch (const std::exception&) {
    DLSCHED_FAIL("endpoint '" + text + "': port '" + port_text +
                 "' is not a number in [0, 65535]");
  }
  return endpoint;
}

namespace {

sockaddr_in tcp_addr(const std::string& host, std::uint16_t port,
                     const std::string& what) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  DLSCHED_EXPECT(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 what + ": '" + host +
                     "' is not an IPv4 address (use e.g. 127.0.0.1)");
  return addr;
}

}  // namespace

int connect_endpoint(const Endpoint& endpoint) {
  if (endpoint.tcp) {
    const sockaddr_in addr =
        tcp_addr(endpoint.host, endpoint.port, "connect");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DLSCHED_EXPECT(fd >= 0, "net: cannot create TCP socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      DLSCHED_FAIL("net: cannot connect to " + endpoint.describe() + ": " +
                   std::strerror(err));
    }
    // Lease/ack frames are tiny and latency-sensitive; don't batch them.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DLSCHED_EXPECT(!endpoint.path.empty() &&
                     endpoint.path.size() < sizeof(addr.sun_path),
                 "net: bad socket path '" + endpoint.path + "'");
  std::strncpy(addr.sun_path, endpoint.path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "net: cannot create socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot connect to '" + endpoint.path +
                 "': " + std::strerror(err));
  }
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t& bound_port) {
  sockaddr_in addr = tcp_addr(host, port, "listen");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "net: cannot create TCP socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot bind " + host + ":" + std::to_string(port) +
                 ": " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot listen on " + host + ":" +
                 std::to_string(port) + ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  DLSCHED_EXPECT(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
      "net: getsockname failed");
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DLSCHED_EXPECT(!path.empty(), "net: empty socket path");
  DLSCHED_EXPECT(path.size() < sizeof(addr.sun_path),
                 "net: socket path too long for AF_UNIX ('" + path + "')");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "net: cannot create socket");
  // A previous daemon's socket file would make bind fail; a *live*
  // daemon is beyond this process's knowledge, so last-one-wins.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot listen on '" + path +
                 "': " + std::strerror(err));
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Frame read_frame(int fd, std::string& buffer, const char* who) {
  char chunk[4096];
  for (;;) {
    const FrameDecode decode = try_decode_frame(buffer);
    if (decode.status == DecodeStatus::Ok) {
      buffer.erase(0, decode.consumed);
      return decode.frame;
    }
    DLSCHED_EXPECT(decode.status == DecodeStatus::NeedMore,
                   std::string(who) + ": malformed frame from peer: " +
                       decode.error);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    DLSCHED_EXPECT(n > 0, std::string(who) + ": peer closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace dlsched::service::net
