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
// Nested calls.  A call made from inside another call's `body` is nested
// beneath it, and runs on at most as many lanes as the call it runs
// inside; a call that runs inline (one lane) runs every call nested in
// it inline too.  A call that starts while every lane is busy stays open
// while it has unclaimed indices and a free lane, and lanes that run out
// of work join it:
//   * a helper that finishes its call joins the oldest open call, of any
//     caller, before it parks;
//   * a caller waiting for its own helpers joins only calls nested
//     beneath its own call (the work those helpers wait on), never an
//     unrelated one, so no caller waits behind another caller's job.
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

/// Runs `body(i)` once for every i in [0, count) across up to `lanes`
/// lanes (the caller plus pooled helpers) and returns when every index
/// has finished.  Indices are claimed in increasing order; which lane
/// runs which index is unspecified.  With `lanes <= 1` or `count <= 1`,
/// or when nested in a one-lane call, the loop runs inline on the caller.
/// When a `body` call throws, no further indices are handed out and the
/// first exception is rethrown to the caller once the running ones have
/// finished.
void fan_out(std::size_t count, std::size_t lanes,
             const std::function<void(std::size_t)>& body);

/// Helper threads currently alive in the pool (0 before the first
/// multi-lane call and right after a fork).
[[nodiscard]] std::size_t fan_out_helpers();

}  // namespace dlsched
