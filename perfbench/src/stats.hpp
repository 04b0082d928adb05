// Run statistics: nearest-rank quantiles, and the quiet part of a run.
//
// On a virtual machine the host takes CPU time away from the guest
// (steal), in bursts of about a second; a few percent of steal slows the
// serve latencies and the light sweep by tens of percent.  So a run is
// split into windows (or passes), the steal share of each is measured, and
// the figures are taken over the quietest of them.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an unsorted sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The windows to measure: the share `keep` of them with the least steal
/// (at least one), and every window that stole no more than the last of
/// those.
[[nodiscard]] std::vector<bool> quiet_windows(
    const std::vector<double>& steal_share, double keep);

/// Latency samples of one recording thread, by window of the run.  A
/// window keeps its first `capacity` samples and counts the rest; the
/// storage is allocated and written up front, so the recorder's memory
/// does not depend on how many operations a run completes and
/// `peak_rss_mb` measures the program.
class WindowSamples {
 public:
  WindowSamples(double span_s, std::size_t windows, std::size_t capacity);

  /// A sample taken `at_s` seconds after the start; samples at or past
  /// the span count in the last window.
  void add(double at_s, double value);

  [[nodiscard]] std::size_t windows() const { return counts_.size(); }
  [[nodiscard]] double width_s() const { return width_s_; }
  [[nodiscard]] std::size_t count(std::size_t window) const {
    return counts_[window];
  }
  [[nodiscard]] std::span<const double> kept(std::size_t window) const;
  [[nodiscard]] std::size_t total_count() const;
  [[nodiscard]] double total() const { return total_; }  ///< of every value

 private:
  double width_s_;
  std::size_t capacity_;
  std::vector<double> values_;  ///< capacity_ slots per window
  std::vector<std::size_t> counts_;
  double total_ = 0.0;
};

struct WindowStats {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double rate = 0.0;         ///< operations per second of the quiet windows
  std::size_t samples = 0;   ///< kept in the quiet windows
  std::size_t windows = 0;   ///< quiet windows
};

/// Latency and rate over the quietest quarter of the windows of recorders
/// that share one window layout; `steal_share` has one entry per window.
[[nodiscard]] WindowStats window_stats(
    const std::vector<WindowSamples>& recorded,
    const std::vector<double>& steal_share);

}  // namespace perfbench
