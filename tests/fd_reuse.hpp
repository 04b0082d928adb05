// Connection-fd bookkeeping check shared by the daemon and the cluster
// coordinator suites.  A listener must forget a connection's fd before it
// closes it: once closed, the number can be handed to any new socket in
// the process, and a stale entry would make `stop()` shut that socket down.
#pragma once

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "service/client.hpp"

namespace dlsched::fd_probe {

/// This process's open socket descriptors, from /proc/self/fd (the
/// listing's own directory descriptor is not a socket, so it drops out).
inline std::set<int> open_sockets() {
  std::set<int> fds;
  for (const std::filesystem::directory_entry& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::filesystem::path target =
        std::filesystem::read_symlink(entry.path(), ec);
    if (!ec && target.string().rfind("socket:", 0) == 0) {
      fds.insert(std::stoi(entry.path().filename().string()));
    }
  }
  return fds;
}

/// Opens one connection to `endpoint` and closes it, waits until the
/// listener has closed its end too, lets a socket pair take over both
/// freed fd numbers, runs `stop`, and expects the pair to still carry a
/// byte each way.
inline void expect_stop_spares_reused_fd_numbers(
    const std::string& endpoint, const std::function<void()>& stop) {
  const std::set<int> before = open_sockets();
  auto client = std::make_unique<service::ServeClient>(endpoint);
  (void)client->stats_json();  // the listener has accepted it
  std::set<int> connection;
  for (const int fd : open_sockets()) {
    if (before.count(fd) == 0) connection.insert(fd);
  }
  ASSERT_EQ(connection.size(), 2u);  // our end and the listener's

  client.reset();
  const auto still_open = [&] {
    const std::set<int> now = open_sockets();
    return std::any_of(connection.begin(), connection.end(),
                       [&](int fd) { return now.count(fd) != 0; });
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (still_open() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_FALSE(still_open()) << "the listener never closed its end";

  // New descriptors take the lowest free numbers: the two just freed.
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  EXPECT_EQ((std::set<int>{pair[0], pair[1]}), connection);

  stop();
  char byte = 0;
  EXPECT_EQ(::send(pair[0], "a", 1, MSG_NOSIGNAL), 1);
  EXPECT_EQ(::recv(pair[1], &byte, 1, MSG_DONTWAIT), 1);
  EXPECT_EQ(::send(pair[1], "b", 1, MSG_NOSIGNAL), 1);
  EXPECT_EQ(::recv(pair[0], &byte, 1, MSG_DONTWAIT), 1);
  ::close(pair[0]);
  ::close(pair[1]);
}

}  // namespace dlsched::fd_probe
