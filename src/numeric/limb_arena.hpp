// Thread-local freelist of limb buffers for BigInt values.
//
// A BigInt whose magnitude reaches 2^62 keeps it in a vector of 64-bit
// limbs; one that shrinks back into the inline word gives that vector up.
// In the exact simplex values cross that line all the time, and each
// crossing used to round-trip a vector through the heap.  The arena keeps
// a small pool of capacity-retaining buffers per thread: BigInt acquires a
// pooled buffer when a value needs limb storage and has none, and releases
// the storage back when the value goes inline again.  The pool is bounded
// (count and per-buffer capacity) so a burst of huge intermediates cannot
// pin memory for the rest of the run.  Temporaries never come from here:
// BigInt computes in per-thread scratch (bigint.cpp) and copies only the
// result into a value's own storage.
//
// Stats are cumulative per thread; the solver layer snapshots them around
// a solve to report "allocations avoided" in the bench artifacts.  Within
// one thread the counters are plain loads/stores (snapshot-before minus
// snapshot-after is exact).  Cross-thread visibility goes through
// `aggregate()`: every arena registers itself in a process-wide registry,
// counters are written with relaxed atomic stores (same codegen as a plain
// increment -- only the owning thread writes), and the aggregate reads
// them with relaxed atomic loads, so summing while worker threads solve is
// race-free.  A thread that exits folds its totals into a retired
// accumulator first; `aggregate()` therefore never loses counts, though a
// concurrent snapshot may lag the hot thread by a few increments.
//
// Note the experiment engine's `--workers N` fans out *processes*, which
// aggregate within themselves and report counters through their shard
// fragments; `aggregate()` covers the in-process threads (runtime pool,
// tests, future threaded sweeps).
#pragma once

#include <cstdint>
#include <vector>

namespace dlsched::numeric {

class LimbArena {
 public:
  struct Stats {
    /// Buffer requests that found no capacity in place.
    std::uint64_t acquires = 0;
    /// Requests served from the pool, i.e. heap allocations avoided.
    std::uint64_t pool_hits = 0;
    /// Buffers returned to the pool (vs dropped because it was full).
    std::uint64_t releases = 0;
  };

  LimbArena();
  ~LimbArena();
  LimbArena(const LimbArena&) = delete;
  LimbArena& operator=(const LimbArena&) = delete;

  /// The calling thread's arena.
  static LimbArena& local() noexcept;

  /// Sum of every thread's counters (live arenas plus exited threads),
  /// safe to call while other threads are solving.  See the file comment
  /// for the memory-ordering contract.
  [[nodiscard]] static Stats aggregate() noexcept;

  /// Gives `out` a pooled buffer (empty, capacity retained) when it has no
  /// capacity of its own.  No-op if `out` already owns storage.
  void acquire(std::vector<std::uint64_t>& out) noexcept;

  /// Takes `buffer`'s storage into the pool (or frees it when the pool is
  /// full or the buffer is oversized).  `buffer` is left empty either way.
  void release(std::vector<std::uint64_t>& buffer) noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Bounded pool: enough for the simplex pivot working set, small enough
  /// to be irrelevant as a per-thread footprint.
  static constexpr std::size_t kMaxPooled = 64;
  /// Buffers beyond this capacity (in 64-bit limbs, 16 KiB) are freed,
  /// not pooled.
  static constexpr std::size_t kMaxRetainedCapacity = 1 << 11;

  std::vector<std::vector<std::uint64_t>> pool_;
  Stats stats_;
};

/// Snapshot of the calling thread's cumulative arena stats.
[[nodiscard]] LimbArena::Stats limb_arena_stats() noexcept;

/// Process-wide totals across all threads; see LimbArena::aggregate().
[[nodiscard]] LimbArena::Stats limb_arena_aggregate_stats() noexcept;

}  // namespace dlsched::numeric
