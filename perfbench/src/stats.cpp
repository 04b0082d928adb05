#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

std::vector<bool> quiet_windows(const std::vector<double>& steal_share,
                                double keep) {
  std::vector<double> sorted = steal_share;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(keep * static_cast<double>(sorted.size()))),
      1, std::max<std::size_t>(sorted.size(), 1));
  const double limit = sorted.empty() ? 0.0 : sorted[rank - 1];
  std::vector<bool> quiet;
  for (const double share : steal_share) quiet.push_back(share <= limit);
  return quiet;
}

WindowSamples::WindowSamples(double span_s, std::size_t windows,
                             std::size_t capacity)
    : width_s_(span_s /
               static_cast<double>(std::max<std::size_t>(windows, 1))),
      capacity_(capacity),
      values_(std::max<std::size_t>(windows, 1) * capacity, 0.0),
      counts_(std::max<std::size_t>(windows, 1), 0) {}

void WindowSamples::add(double at_s, double value) {
  const double slot = std::max(0.0, std::floor(at_s / width_s_));
  const std::size_t window =
      std::min(static_cast<std::size_t>(slot), counts_.size() - 1);
  const std::size_t n = counts_[window]++;
  if (n < capacity_) values_[window * capacity_ + n] = value;
  total_ += value;
}

std::span<const double> WindowSamples::kept(std::size_t window) const {
  return {values_.data() + window * capacity_,
          std::min(counts_[window], capacity_)};
}

std::size_t WindowSamples::total_count() const {
  std::size_t n = 0;
  for (const std::size_t count : counts_) n += count;
  return n;
}

WindowStats window_stats(const std::vector<WindowSamples>& recorded,
                         const std::vector<double>& steal_share) {
  WindowStats stats;
  if (recorded.empty()) return stats;
  const std::vector<bool> quiet = quiet_windows(steal_share, 0.25);
  std::vector<double> kept;
  std::size_t count = 0;
  for (std::size_t w = 0; w < recorded.front().windows(); ++w) {
    if (w < quiet.size() && !quiet[w]) continue;
    ++stats.windows;
    for (const WindowSamples& samples : recorded) {
      count += samples.count(w);
      const std::span<const double> values = samples.kept(w);
      kept.insert(kept.end(), values.begin(), values.end());
    }
  }
  stats.samples = kept.size();
  const double quiet_s =
      recorded.front().width_s() * static_cast<double>(stats.windows);
  stats.rate = static_cast<double>(count) / quiet_s;
  stats.p50 = quantile(kept, 0.50);
  stats.p90 = quantile(kept, 0.90);
  stats.p99 = quantile(std::move(kept), 0.99);
  return stats;
}

}  // namespace perfbench
