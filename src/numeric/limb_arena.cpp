#include "numeric/limb_arena.hpp"

#include <atomic>
#include <mutex>
#include <utility>

namespace dlsched::numeric {

namespace {

/// Registry of live arenas plus the folded totals of exited threads.
/// The mutex guards only the membership and the retired accumulator;
/// the live counters themselves are read with relaxed atomics.
struct ArenaRegistry {
  std::mutex mutex;
  std::vector<const LimbArena*> live;
  LimbArena::Stats retired;
};

ArenaRegistry& registry() noexcept {
  static ArenaRegistry* instance = new ArenaRegistry();
  return *instance;
}

/// Owner-thread increment.  A relaxed load/store pair compiles to the same
/// plain add as `++counter` (no lock prefix: only this thread writes) while
/// licensing concurrent relaxed loads from aggregate().
inline void bump(std::uint64_t& counter) noexcept {
  std::atomic_ref<std::uint64_t> ref(counter);
  ref.store(ref.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
}

inline std::uint64_t peek(const std::uint64_t& counter) noexcept {
  return std::atomic_ref<const std::uint64_t>(counter).load(
      std::memory_order_relaxed);
}

}  // namespace

LimbArena::LimbArena() {
  // Reserving up front keeps release() allocation-free (and noexcept).
  pool_.reserve(kMaxPooled);
  ArenaRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.live.push_back(this);
}

LimbArena::~LimbArena() {
  ArenaRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (std::size_t i = 0; i < reg.live.size(); ++i) {
    if (reg.live[i] == this) {
      reg.live.erase(reg.live.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  reg.retired.acquires += stats_.acquires;
  reg.retired.pool_hits += stats_.pool_hits;
  reg.retired.releases += stats_.releases;
}

LimbArena& LimbArena::local() noexcept {
  thread_local LimbArena arena;
  return arena;
}

LimbArena::Stats LimbArena::aggregate() noexcept {
  ArenaRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  Stats total = reg.retired;
  for (const LimbArena* arena : reg.live) {
    total.acquires += peek(arena->stats_.acquires);
    total.pool_hits += peek(arena->stats_.pool_hits);
    total.releases += peek(arena->stats_.releases);
  }
  return total;
}

void LimbArena::acquire(std::vector<std::uint64_t>& out) noexcept {
  if (out.capacity() != 0) return;
  bump(stats_.acquires);
  if (pool_.empty()) return;  // caller's vector grows on first push_back
  bump(stats_.pool_hits);
  out = std::move(pool_.back());
  pool_.pop_back();
  out.clear();
}

void LimbArena::release(std::vector<std::uint64_t>& buffer) noexcept {
  if (buffer.capacity() == 0) return;
  if (pool_.size() < kMaxPooled && buffer.capacity() <= kMaxRetainedCapacity) {
    bump(stats_.releases);
    buffer.clear();
    pool_.push_back(std::move(buffer));
  }
  // Either way the caller's vector must end up storage-free.
  std::vector<std::uint64_t>().swap(buffer);
}

LimbArena::Stats limb_arena_stats() noexcept {
  return LimbArena::local().stats();
}

LimbArena::Stats limb_arena_aggregate_stats() noexcept {
  return LimbArena::aggregate();
}

}  // namespace dlsched::numeric
