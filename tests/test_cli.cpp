#include <gtest/gtest.h>

#include "util/cli.hpp"
#include "util/error.hpp"

namespace dlsched {
namespace {

CliArgs parse(std::initializer_list<const char*> argv,
              const std::vector<std::string>& flags = {}) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return CliArgs::parse(static_cast<int>(full.size()), full.data(), flags);
}

TEST(Cli, PositionalArguments) {
  const CliArgs args = parse({"fifo", "platform.txt"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "fifo");
  EXPECT_EQ(args.positional()[1], "platform.txt");
}

TEST(Cli, OptionWithValue) {
  const CliArgs args = parse({"--load", "1000", "cmd"});
  EXPECT_EQ(args.get_or("load", ""), "1000");
  EXPECT_EQ(args.get_int("load", 0), 1000);
  EXPECT_EQ(args.positional().size(), 1u);
}

TEST(Cli, EqualsSyntax) {
  const CliArgs args = parse({"--load=42", "--name=x y"});
  EXPECT_EQ(args.get_int("load", 0), 42);
  EXPECT_EQ(args.get_or("name", ""), "x y");
}

TEST(Cli, FlagsTakeNoValue) {
  const CliArgs args = parse({"--two-port", "next"}, {"two-port"});
  EXPECT_TRUE(args.has("two-port"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "next");
}

TEST(Cli, MissingValueThrows) {
  EXPECT_THROW(parse({"--load"}), Error);
}

TEST(Cli, NumericParsingErrors) {
  const CliArgs args = parse({"--load", "abc", "--rate", "1.5x"});
  EXPECT_THROW((void)args.get_int("load", 0), Error);
  EXPECT_THROW((void)args.get_double("rate", 0.0), Error);
}

TEST(Cli, FallbacksWhenAbsent) {
  const CliArgs args = parse({});
  EXPECT_FALSE(args.has("anything"));
  EXPECT_EQ(args.get_or("opt", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("opt", 2.5), 2.5);
  EXPECT_EQ(args.get_int("opt", -3), -3);
  EXPECT_FALSE(args.get("opt").has_value());
}

TEST(Cli, DoubleValues) {
  const CliArgs args = parse({"--scale", "0.125"});
  EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 0.125);
}

TEST(Cli, CountValues) {
  const CliArgs args =
      parse({"--zero", "0", "--four", "4", "--minus", "-1", "--word", "x"});
  EXPECT_EQ(args.get_count("zero", 7), 0u);
  EXPECT_EQ(args.get_count("four", 7), 4u);
  EXPECT_EQ(args.get_count("absent", 7), 7u);
  // A negative count must not wrap to a huge size_t; the error names the
  // option.
  for (const char* option : {"minus", "word"}) {
    try {
      (void)args.get_count(option, 7);
      ADD_FAILURE() << "--" << option << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + option),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Cli, EmptyOptionNameRejected) {
  EXPECT_THROW(parse({"--", "x"}), Error);
}

}  // namespace
}  // namespace dlsched
