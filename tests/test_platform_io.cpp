#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "platform/platform_io.hpp"
#include "util/error.hpp"

namespace dlsched {
namespace {

TEST(PlatformIo, ParsesExplicitDColumns) {
  const StarPlatform platform = parse_platform_text(
      "# two workers\n"
      "a 0.1 0.3 0.05\n"
      "b 0.2 0.4 0.1\n");
  ASSERT_EQ(platform.size(), 2u);
  EXPECT_EQ(platform.worker(0).name, "a");
  EXPECT_DOUBLE_EQ(platform.worker(0).c, 0.1);
  EXPECT_DOUBLE_EQ(platform.worker(0).w, 0.3);
  EXPECT_DOUBLE_EQ(platform.worker(0).d, 0.05);
  EXPECT_DOUBLE_EQ(platform.worker(1).d, 0.1);
}

TEST(PlatformIo, ZDirectiveFillsMissingD) {
  const StarPlatform platform = parse_platform_text(
      "z 0.5\n"
      "a 0.1 0.3\n"
      "b 0.2 0.4 0.08\n");  // explicit d wins
  EXPECT_DOUBLE_EQ(platform.worker(0).d, 0.05);
  EXPECT_DOUBLE_EQ(platform.worker(1).d, 0.08);
}

TEST(PlatformIo, CommentsAndBlankLinesIgnored)
{
  const StarPlatform platform = parse_platform_text(
      "\n"
      "# header comment\n"
      "   \n"
      "a 0.1 0.3 0.05   # trailing comment\n");
  EXPECT_EQ(platform.size(), 1u);
}

TEST(PlatformIo, RejectsMalformedLines) {
  EXPECT_THROW(parse_platform_text("a 0.1\n"), Error);
  EXPECT_THROW(parse_platform_text("a 0.1 0.2 0.3 0.4 0.5\n"), Error);
  EXPECT_THROW(parse_platform_text("a x 0.2 0.3\n"), Error);
  EXPECT_THROW(parse_platform_text(""), Error);
  EXPECT_THROW(parse_platform_text("# only comments\n"), Error);
}

TEST(PlatformIo, RejectsMissingDWithoutZ) {
  EXPECT_THROW(parse_platform_text("a 0.1 0.3\n"), Error);
}

TEST(PlatformIo, RejectsLateZDirective) {
  EXPECT_THROW(parse_platform_text("a 0.1 0.3 0.05\nz 0.5\n"), Error);
}

TEST(PlatformIo, RejectsInvalidParameters) {
  // c = 0 violates the platform invariant; the error surfaces on
  // construction.
  EXPECT_THROW(parse_platform_text("a 0 0.3 0.05\n"), Error);
  // std::stod reads "inf"; the platform refuses the infinite constant.
  EXPECT_THROW(parse_platform_text("P1 0.1 inf 0.05\n"), Error);
}

TEST(PlatformIo, ErrorsMentionTheLineNumber) {
  try {
    (void)parse_platform_text("a 0.1 0.3 0.05\nbroken line here now yes\n");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(PlatformIo, SerializeParseRoundTrip) {
  const StarPlatform original({Worker{0.125, 0.375, 0.0625, "alpha"},
                               Worker{0.25, 0.75, 0.125, "beta"}});
  const StarPlatform reparsed =
      parse_platform_text(serialize_platform(original));
  ASSERT_EQ(reparsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reparsed.worker(i).name, original.worker(i).name);
    EXPECT_DOUBLE_EQ(reparsed.worker(i).c, original.worker(i).c);
    EXPECT_DOUBLE_EQ(reparsed.worker(i).w, original.worker(i).w);
    EXPECT_DOUBLE_EQ(reparsed.worker(i).d, original.worker(i).d);
  }
}

TEST(PlatformIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/dlsched_platform.txt";
  const StarPlatform original({Worker{0.1, 0.2, 0.05, "n1"}});
  save_platform(original, path);
  const StarPlatform loaded = load_platform(path);
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.worker(0).name, "n1");
  std::remove(path.c_str());
}

TEST(PlatformIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_platform("/nonexistent/definitely/not/here.txt"), Error);
}

}  // namespace
}  // namespace dlsched
