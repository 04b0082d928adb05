#include "workloads.hpp"

#include "answers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

struct Counters {
  std::uint64_t stores = 0;
  std::uint64_t acquires = 0;
  std::uint64_t pool_hits = 0;
};

Counters read_counters() {
  const dlsched::obs::MetricsRegistry& registry =
      dlsched::obs::MetricsRegistry::process();
  return {registry.counter("cache.stores"),
          registry.counter("solver.arena_acquires"),
          registry.counter("solver.arena_pool_hits")};
}

}  // namespace

TraceWindow::TraceWindow(bool enabled) : enabled_(enabled) {
  if (!enabled_) return;
  const Counters now = read_counters();
  stores_ = now.stores;
  acquires_ = now.acquires;
  pool_hits_ = now.pool_hits;
  dlsched::obs::Tracer::instance().enable("perfbench");
}

TraceWindow::~TraceWindow() {
  if (enabled_) dlsched::obs::Tracer::instance().disable();
}

void TraceWindow::keep(TracedPhase& traced) {
  if (!enabled_) return;
  std::vector<SpanRecord> spans =
      dlsched::obs::Tracer::instance().drain().spans;
  traced.spans.insert(traced.spans.end(),
                      std::make_move_iterator(spans.begin()),
                      std::make_move_iterator(spans.end()));
}

void TraceWindow::close(TracedPhase& traced) {
  if (!enabled_) return;
  keep(traced);
  dlsched::obs::Tracer::instance().disable();
  enabled_ = false;
  const Counters now = read_counters();
  traced.cache_stores = now.stores - stores_;
  traced.arena_acquires = now.acquires - acquires_;
  traced.arena_pool_hits = now.pool_hits - pool_hits_;
}

StealSampler::StealSampler(std::chrono::steady_clock::time_point start,
                           double width_s, std::size_t windows)
    : ticks_(windows + 1) {
  using Duration = std::chrono::steady_clock::duration;
  thread_ = std::thread([this, start, width_s] {
    for (std::size_t k = 0; k < ticks_.size(); ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Duration>(
                      std::chrono::duration<double>(
                          width_s * static_cast<double>(k))));
      ticks_[k] = cpu_ticks();
    }
  });
}

StealSampler::~StealSampler() {
  if (thread_.joinable()) thread_.join();
}

std::vector<double> StealSampler::shares() {
  if (thread_.joinable()) thread_.join();
  std::vector<double> out;
  for (std::size_t k = 1; k < ticks_.size(); ++k) {
    out.push_back(steal_share(ticks_[k - 1], ticks_[k]));
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + salt * 0x9e3779b97f4a7c15ULL + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool check_golden(const Config& config, const std::string& digest,
                  Outcome& outcome) {
  const std::optional<std::string> golden =
      golden_digest(config.golden_table, config.workload, config.seed);
  if (!golden) {
    outcome.notes.push_back("digest " + digest +
                            " (seed not in the golden table)");
    return true;
  }
  if (*golden == digest) {
    outcome.notes.push_back("digest " + digest + " matches the golden table");
    return true;
  }
  outcome.notes.push_back("digest " + digest + " differs from golden " +
                          *golden);
  return false;
}

}  // namespace perfbench
