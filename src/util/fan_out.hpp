// Index fan-out over one process-wide pool of parked helper threads.
//
// `fan_out(count, lanes, body)` runs `body(i)` for every i in [0, count)
// on up to `lanes` lanes.  The calling thread is always one of them, and
// it claims indices like any helper, so a call makes progress even when
// no helper is free (another caller holds them all).  Helpers are
// created lazily, never more than the largest `lanes - 1` any caller has
// asked for, and park between calls; reusing them keeps thread-local
// state (the limb arena, the malloc cache, one tracer lane per helper)
// warm instead of paying a spawn and join per call.
//
// Fork safety: a `pthread_atfork` prepare handler joins every helper
// before `fork()` and both processes respawn them lazily, so no helper
// thread is alive across a fork.  Forking from inside a `body` is not
// supported.
#pragma once

#include <cstddef>
#include <functional>

namespace dlsched {

/// Lanes to run `items` units of work on: `requested`, or the hardware
/// concurrency when 0, capped at `items` and never below 1.
[[nodiscard]] std::size_t lane_count(std::size_t requested,
                                     std::size_t items) noexcept;

/// Runs `body(i)` once for every i in [0, count) across `lanes` lanes (the
/// caller plus up to `lanes - 1` pooled helpers) and returns when every
/// index has finished.  Indices are claimed in increasing order; which
/// lane runs which index is unspecified.  With `lanes <= 1` or `count <= 1`
/// the loop runs inline on the caller.  When a `body` call throws, no
/// further indices are handed out and the first exception is rethrown to
/// the caller once the running ones have finished.
void fan_out(std::size_t count, std::size_t lanes,
             const std::function<void(std::size_t)>& body);

/// Helper threads currently alive in the pool (0 before the first
/// multi-lane call and right after a fork).
[[nodiscard]] std::size_t fan_out_helpers();

}  // namespace dlsched
