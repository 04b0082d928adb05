// Quantiles and the quiet windows of a run.
#include <gtest/gtest.h>

#include "stats.hpp"

namespace {

TEST(Stats, QuantileIsNearestRank) {
  EXPECT_DOUBLE_EQ(perfbench::quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4}, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({}, 0.5), 0.0);
}

TEST(Stats, QuietWindowsAreTheShareWithTheLeastSteal) {
  EXPECT_EQ(perfbench::quiet_windows({0.01, 0.20, 0.00, 0.05}, 0.25),
            (std::vector<bool>{false, false, true, false}));
  EXPECT_EQ(perfbench::quiet_windows({0.01, 0.20, 0.00, 0.05}, 0.5),
            (std::vector<bool>{true, false, true, false}));
  // The quarter of 9 rounds up to 3; a tie at the limit is kept too.
  EXPECT_EQ(perfbench::quiet_windows(
                {0.02, 0.01, 0.3, 0.01, 0.04, 0.0, 0.1, 0.2, 0.01}, 0.25),
            (std::vector<bool>{false, true, false, true, false, true, false,
                               false, true}));
  EXPECT_EQ(perfbench::quiet_windows({0.0, 0.0, 0.0}, 0.25),
            (std::vector<bool>{true, true, true}));
  EXPECT_TRUE(perfbench::quiet_windows({}, 0.25).empty());
}

TEST(Stats, WindowSamplesKeepTheFirstSamplesAndCountAll) {
  perfbench::WindowSamples samples(2.0, 2, 2);
  for (const double at : {0.1, 0.2, 0.3, 1.5, 2.5}) samples.add(at, at);
  EXPECT_EQ(samples.count(0), 3u);
  EXPECT_EQ(samples.count(1), 2u);  // 2.5 s is past the span: last window
  EXPECT_EQ(std::vector<double>(samples.kept(0).begin(),
                                samples.kept(0).end()),
            (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(samples.total_count(), 5u);
  EXPECT_DOUBLE_EQ(samples.total(), 0.1 + 0.2 + 0.3 + 1.5 + 2.5);
}

TEST(Stats, WindowStatsTakeTheQuietWindowsOfEveryRecorder) {
  // Four 1 s windows on two connections; only the second window is quiet.
  std::vector<perfbench::WindowSamples> recorded;
  recorded.emplace_back(4.0, 4, 8);
  recorded.emplace_back(4.0, 4, 8);
  for (const double at : {0.5, 1.1, 1.2, 2.5, 3.5}) recorded[0].add(at, at);
  for (const double at : {1.3, 1.4, 1.5, 1.6}) recorded[1].add(at, at);
  const perfbench::WindowStats w =
      perfbench::window_stats(recorded, {0.05, 0.0, 0.3, 0.02});
  EXPECT_EQ(w.windows, 1u);
  EXPECT_EQ(w.samples, 6u);
  EXPECT_DOUBLE_EQ(w.rate, 6.0);
  EXPECT_DOUBLE_EQ(w.p50, 1.3);  // of 1.1, 1.2, 1.3, 1.4, 1.5, 1.6
  EXPECT_DOUBLE_EQ(w.p90, 1.6);
}

}  // namespace
