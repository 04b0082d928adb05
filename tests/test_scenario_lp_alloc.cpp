// Heap allocations of one double scenario solve.  This binary replaces the
// global operator new with one that counts the calls each thread makes,
// so it is a test program of its own: the count would otherwise see every
// allocation of the other suites.
//
// `solve_scenario_double` builds and solves its LP in a per-thread
// workspace whose buffers keep their capacity.  Once a thread has solved
// its widest LP, a solve allocates only the result it returns -- the same
// number of blocks at p = 4 as at p = 12.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "core/scenario_lp.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

void* counted_allocation(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every form the standard library may call is replaced, so that no block
// is ever allocated by one allocator and freed by another (which a
// sanitizer runtime's own operator new would report).
void* operator new(std::size_t size) {
  if (void* block = counted_allocation(size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* block = counted_allocation(size)) return block;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_allocation(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_allocation(size);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

namespace dlsched {
namespace {

/// Allocations `body` makes on the calling thread.
template <class Body>
std::size_t allocations_of(Body&& body) {
  const std::size_t before = t_allocations;
  body();
  return t_allocations - before;
}

TEST(ScenarioLpDoubleAllocations, AWarmSolveAllocatesOnlyItsResult) {
  Rng rng(12);
  const StarPlatform small = gen::random_star(4, rng, 0.5);
  const StarPlatform wide = gen::random_star(12, rng, 0.5);
  const Scenario small_scenario =
      Scenario::general(rng.permutation(4), rng.permutation(4));
  const Scenario wide_scenario =
      Scenario::general(rng.permutation(12), rng.permutation(12));
  LpOptions two_port;
  two_port.one_port = false;
  for (const LpOptions& options : {LpOptions{}, two_port}) {
    // The thread's first solves size its workspace.
    (void)solve_scenario_double(wide, wide_scenario, options);
    (void)solve_scenario_double(small, small_scenario, options);

    ScenarioSolutionD result;
    const std::size_t at_4 = allocations_of([&] {
      result = solve_scenario_double(small, small_scenario, options);
    });
    const std::size_t at_12 = allocations_of([&] {
      result = solve_scenario_double(wide, wide_scenario, options);
    });
    EXPECT_LE(at_12, at_4) << "one_port = " << options.one_port;
    // The result's own blocks: alpha and the scenario's two orders.
    EXPECT_EQ(at_4, 3u) << "one_port = " << options.one_port;
    EXPECT_EQ(at_12, 3u) << "one_port = " << options.one_port;
  }
}

}  // namespace
}  // namespace dlsched
