#include <gtest/gtest.h>

#include <limits>

#include "platform/generators.hpp"
#include "platform/matrix_app.hpp"
#include "platform/star_platform.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dlsched {
namespace {

StarPlatform three_workers() {
  return StarPlatform({Worker{2.0, 1.0, 1.0, "A"},
                       Worker{1.0, 3.0, 0.5, "B"},
                       Worker{4.0, 2.0, 2.0, "C"}});
}

// ---------------------------------------------------------- star platform --

TEST(StarPlatform, ValidatesParameters) {
  EXPECT_THROW(StarPlatform({Worker{0.0, 1.0, 1.0, ""}}), Error);
  EXPECT_THROW(StarPlatform({Worker{1.0, 0.0, 1.0, ""}}), Error);
  EXPECT_THROW(StarPlatform({Worker{1.0, 1.0, -1.0, ""}}), Error);
  EXPECT_NO_THROW(StarPlatform({Worker{1.0, 1.0, 0.0, ""}}));
}

TEST(StarPlatform, RejectsInfiniteConstants) {
  // +inf passes every sign test, so finiteness is checked on its own.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(StarPlatform({Worker{0.1, 0.2, 0.05, "P1"},
                             Worker{0.2, inf, 0.1, "P2"}}),
               Error);
  EXPECT_THROW(StarPlatform({Worker{inf, 1.0, 1.0, ""}}), Error);
  EXPECT_THROW(StarPlatform({Worker{1.0, 1.0, inf, ""}}), Error);
  const double big = std::numeric_limits<double>::max();
  EXPECT_NO_THROW(StarPlatform({Worker{big, big, big, ""}}));
}

TEST(StarPlatform, AutoNamesWorkers) {
  const StarPlatform platform({Worker{1, 1, 1, ""}, Worker{1, 1, 1, ""}});
  EXPECT_EQ(platform.worker(0).name, "P1");
  EXPECT_EQ(platform.worker(1).name, "P2");
}

TEST(StarPlatform, KeepsExplicitNames) {
  EXPECT_EQ(three_workers().worker(0).name, "A");
}

TEST(StarPlatform, WorkerIndexGuard) {
  EXPECT_THROW((void)three_workers().worker(3), Error);
}

TEST(StarPlatform, UniformZDetection) {
  EXPECT_TRUE(three_workers().has_uniform_z());
  EXPECT_DOUBLE_EQ(three_workers().z(), 0.5);
  const StarPlatform mixed({Worker{1, 1, 0.5, ""}, Worker{1, 1, 0.7, ""}});
  EXPECT_FALSE(mixed.has_uniform_z());
  EXPECT_THROW((void)mixed.z(), Error);
}

TEST(StarPlatform, BusDetection) {
  EXPECT_FALSE(three_workers().is_bus());
  const StarPlatform bus = StarPlatform::bus(1.0, 0.5, {1.0, 2.0, 3.0});
  EXPECT_TRUE(bus.is_bus());
  EXPECT_TRUE(bus.has_uniform_z());
  EXPECT_DOUBLE_EQ(bus.z(), 0.5);
}

TEST(StarPlatform, OrderByCBreaksTiesByIndex) {
  const StarPlatform platform({Worker{2, 1, 1, ""}, Worker{1, 1, 0.5, ""},
                               Worker{2, 5, 1, ""}});
  const auto order = platform.order_by_c();
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0, 2}));
  const auto desc = platform.order_by_c_desc();
  EXPECT_EQ(desc, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(StarPlatform, OrderByW) {
  const auto order = three_workers().order_by_w();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1}));
}

TEST(StarPlatform, SpeedUpDividesCosts) {
  const StarPlatform fast = three_workers().speed_up(2.0, 4.0);
  EXPECT_DOUBLE_EQ(fast.worker(0).c, 1.0);
  EXPECT_DOUBLE_EQ(fast.worker(0).d, 0.5);
  EXPECT_DOUBLE_EQ(fast.worker(0).w, 0.25);
  EXPECT_THROW(three_workers().speed_up(0.0, 1.0), Error);
}

TEST(StarPlatform, SubsetPreservesOrderGiven) {
  const std::vector<std::size_t> pick{2, 0};
  const StarPlatform sub = three_workers().subset(pick);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.worker(0).name, "C");
  EXPECT_EQ(sub.worker(1).name, "A");
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(three_workers().subset(bad), Error);
}

TEST(StarPlatform, MirrorSwapsCAndD) {
  const StarPlatform mirror = three_workers().mirrored();
  EXPECT_DOUBLE_EQ(mirror.worker(0).c, 1.0);
  EXPECT_DOUBLE_EQ(mirror.worker(0).d, 2.0);
  EXPECT_DOUBLE_EQ(mirror.worker(0).w, 1.0);
  // z flips to 1/z.
  EXPECT_DOUBLE_EQ(mirror.z(), 2.0);
}

TEST(StarPlatform, MirrorRequiresPositiveD) {
  const StarPlatform no_returns({Worker{1, 1, 0, ""}});
  EXPECT_THROW(no_returns.mirrored(), Error);
}

TEST(StarPlatform, DescribeMentionsEveryWorker) {
  const std::string text = three_workers().describe();
  EXPECT_NE(text.find("A"), std::string::npos);
  EXPECT_NE(text.find("B"), std::string::npos);
  EXPECT_NE(text.find("C"), std::string::npos);
}

// ------------------------------------------------------------- generators --

TEST(Generators, HomogeneousSpeedsShareFactors) {
  Rng rng(5);
  const auto speeds = gen::homogeneous_speeds(6, rng);
  ASSERT_EQ(speeds.size(), 6u);
  for (const WorkerSpeeds& s : speeds) {
    EXPECT_DOUBLE_EQ(s.comm, speeds[0].comm);
    EXPECT_DOUBLE_EQ(s.comp, speeds[0].comp);
  }
}

TEST(Generators, BusHeteroCompSharesOnlyComm) {
  Rng rng(5);
  const auto speeds = gen::bus_hetero_comp_speeds(8, rng);
  bool some_comp_differs = false;
  for (const WorkerSpeeds& s : speeds) {
    EXPECT_DOUBLE_EQ(s.comm, speeds[0].comm);
    some_comp_differs |= s.comp != speeds[0].comp;
  }
  EXPECT_TRUE(some_comp_differs);
}

TEST(Generators, SpeedsStayInRange) {
  Rng rng(6);
  for (const WorkerSpeeds& s : gen::heterogeneous_speeds(50, rng)) {
    EXPECT_GE(s.comm, 1.0);
    EXPECT_LE(s.comm, 10.0);
    EXPECT_GE(s.comp, 1.0);
    EXPECT_LE(s.comp, 10.0);
  }
}

TEST(Generators, ParticipationPlatformMatchesPaperTable) {
  const auto speeds = gen::participation_speeds(3.0);
  ASSERT_EQ(speeds.size(), 4u);
  EXPECT_DOUBLE_EQ(speeds[0].comm, 10.0);
  EXPECT_DOUBLE_EQ(speeds[1].comm, 8.0);
  EXPECT_DOUBLE_EQ(speeds[2].comm, 8.0);
  EXPECT_DOUBLE_EQ(speeds[3].comm, 3.0);
  EXPECT_DOUBLE_EQ(speeds[0].comp, 9.0);
  EXPECT_DOUBLE_EQ(speeds[1].comp, 9.0);
  EXPECT_DOUBLE_EQ(speeds[2].comp, 10.0);
  EXPECT_DOUBLE_EQ(speeds[3].comp, 1.0);
}

TEST(Generators, RandomStarHasRequestedZ) {
  Rng rng(7);
  const StarPlatform platform = gen::random_star(10, rng, 0.5);
  EXPECT_EQ(platform.size(), 10u);
  EXPECT_TRUE(platform.has_uniform_z());
  EXPECT_NEAR(platform.z(), 0.5, 1e-12);
}

TEST(Generators, RandomBusIsABus) {
  Rng rng(8);
  const StarPlatform platform = gen::random_bus(5, rng, 0.25);
  EXPECT_TRUE(platform.is_bus());
  EXPECT_NEAR(platform.z(), 0.25, 1e-12);
}

TEST(Generators, GridPlatformUsesExactFractions) {
  Rng rng(9);
  const StarPlatform platform = gen::random_star_grid(6, rng, 1, 2);
  EXPECT_TRUE(platform.has_uniform_z());
  EXPECT_NEAR(platform.z(), 0.5, 1e-12);
  for (const Worker& w : platform.workers()) {
    // All parameters are multiples of 1/16 (denominator 8, z_den 2).
    EXPECT_DOUBLE_EQ(w.c * 16.0, std::round(w.c * 16.0));
    EXPECT_DOUBLE_EQ(w.d * 16.0, std::round(w.d * 16.0));
  }
}

TEST(Generators, Deterministic) {
  Rng a(42);
  Rng b(42);
  const auto pa = gen::heterogeneous_speeds(5, a);
  const auto pb = gen::heterogeneous_speeds(5, b);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa[i].comm, pb[i].comm);
    EXPECT_DOUBLE_EQ(pa[i].comp, pb[i].comp);
  }
}

// -------------------------------------------------------------- matrix app --

TEST(MatrixApp, ByteAndFlopCounts) {
  MatrixApp app({.matrix_size = 100,
                 .base_bandwidth = 1e6,
                 .base_flops = 1e8,
                 .element_bytes = 8.0});
  EXPECT_DOUBLE_EQ(app.input_bytes(), 2.0 * 8.0 * 100 * 100);
  EXPECT_DOUBLE_EQ(app.output_bytes(), 8.0 * 100 * 100);
  EXPECT_DOUBLE_EQ(app.flops(), 2.0 * 100.0 * 100.0 * 100.0);
}

TEST(MatrixApp, ZIsOneHalf) {
  MatrixApp app({.matrix_size = 64});
  const Worker w = app.worker(WorkerSpeeds{1.0, 1.0});
  EXPECT_DOUBLE_EQ(w.d / w.c, 0.5);
  EXPECT_DOUBLE_EQ(app.z(), 0.5);
}

TEST(MatrixApp, FasterWorkerHasSmallerCosts) {
  MatrixApp app({.matrix_size = 64});
  const Worker slow = app.worker(WorkerSpeeds{1.0, 1.0});
  const Worker fast = app.worker(WorkerSpeeds{2.0, 5.0});
  EXPECT_DOUBLE_EQ(fast.c, slow.c / 2.0);
  EXPECT_DOUBLE_EQ(fast.d, slow.d / 2.0);
  EXPECT_DOUBLE_EQ(fast.w, slow.w / 5.0);
}

TEST(MatrixApp, PlatformFromSpeedsHasUniformZ) {
  MatrixApp app({.matrix_size = 32});
  Rng rng(11);
  const StarPlatform platform =
      app.platform(gen::heterogeneous_speeds(7, rng));
  EXPECT_EQ(platform.size(), 7u);
  EXPECT_TRUE(platform.has_uniform_z());
  EXPECT_NEAR(platform.z(), 0.5, 1e-12);
}

TEST(MatrixApp, ComputeVsCommRatioGrowsWithN) {
  // w ~ n^3 while c ~ n^2: larger matrices shift work toward computation.
  MatrixApp small({.matrix_size = 40});
  MatrixApp large({.matrix_size = 200});
  const Worker ws = small.worker(WorkerSpeeds{1, 1});
  const Worker wl = large.worker(WorkerSpeeds{1, 1});
  EXPECT_GT(wl.w / wl.c, ws.w / ws.c);
}

TEST(MatrixApp, RejectsBadConfig) {
  EXPECT_THROW(MatrixApp({.matrix_size = 0}), Error);
  EXPECT_THROW(MatrixApp({.matrix_size = 10, .base_bandwidth = 0.0}), Error);
}

}  // namespace
}  // namespace dlsched
