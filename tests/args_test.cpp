// Tests for the CLI argument parser.
#include <gtest/gtest.h>

#include <string>

#include "ccq/common/args.hpp"
#include "ccq/common/error.hpp"

namespace ccq {
namespace {

Args parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"ccq"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, CommandIsFirstBareToken) {
  const Args args = parse({"run", "--lr", "0.1"});
  EXPECT_EQ(args.command(), "run");
}

TEST(ArgsTest, NoCommandIsEmpty) {
  const Args args = parse({"--flag"});
  EXPECT_EQ(args.command(), "");
}

TEST(ArgsTest, KeyValuePairs) {
  const Args args = parse({"run", "--arch", "resnet20", "--width", "0.5"});
  EXPECT_EQ(args.get("arch", "x"), "resnet20");
  EXPECT_DOUBLE_EQ(args.get_double("width", 0.0), 0.5);
  EXPECT_EQ(args.get("missing", "fallback"), "fallback");
}

TEST(ArgsTest, IntParsingAndValidation) {
  const Args args = parse({"run", "--epochs", "12"});
  EXPECT_EQ(args.get_int("epochs", 0), 12);
  EXPECT_EQ(args.get_int("absent", 7), 7);
  const Args bad = parse({"run", "--epochs", "twelve"});
  EXPECT_THROW(bad.get_int("epochs", 0), Error);
}

TEST(ArgsTest, IntOutsideIntRangeIsRejectedNotNarrowed) {
  // strtol reads a long; narrowed to int, 2^32 would read as 0.
  const Args args = parse({"serve", "--max-delay-us", "4294967296",
                           "--big", "2147483648", "--max", "2147483647"});
  try {
    args.get_int("max-delay-us", 0);
    FAIL() << "2^32 accepted as an int";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--max-delay-us"), std::string::npos) << message;
    EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  }
  EXPECT_THROW(args.get_int("big", 0), Error);
  EXPECT_EQ(args.get_int("max", 0), 2147483647);
  // Far past long too (strtol's own ERANGE).
  const Args huge = parse({"run", "--n", "99999999999999999999999"});
  EXPECT_THROW(huge.get_int("n", 0), Error);
  const Args list = parse({"run", "--ladder", "8,4294967296"});
  EXPECT_THROW(list.get_int_list("ladder", {}), Error);
}

TEST(ArgsTest, SizeRejectsNegativeValuesNamingTheFlag) {
  // The tokenizer takes a value starting with '-' for a flag, but strtol
  // skips leading blanks, so " -1" reaches the getter as -1 — which a
  // static_cast<std::size_t> would turn into 2^64 - 1.
  const Args args = parse({"serve", "--workers", " -1", "--queue-cap", "0",
                           "--requests", "512", "--max-batch", "4294967296"});
  try {
    args.get_size("workers", 2);
    FAIL() << "negative --workers accepted";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("--workers"), std::string::npos) << message;
    EXPECT_NE(message.find("non-negative"), std::string::npos) << message;
  }
  EXPECT_EQ(args.get_size("queue-cap", 64), 0u);
  EXPECT_EQ(args.get_size("requests", 1), 512u);
  EXPECT_EQ(args.get_size("absent", 7), 7u);
  EXPECT_THROW(args.get_size("max-batch", 8), Error);
  const Args bad = parse({"serve", "--workers", "two"});
  EXPECT_THROW(bad.get_size("workers", 2), Error);
}

TEST(ArgsTest, BareFlags) {
  const Args args = parse({"run", "--no-memory", "--gamma", "2"});
  EXPECT_TRUE(args.get_flag("no-memory"));
  EXPECT_FALSE(args.get_flag("memory"));
  EXPECT_EQ(args.get_int("gamma", 0), 2);
}

TEST(ArgsTest, IntListParsing) {
  const Args args = parse({"run", "--ladder", "8,4,2"});
  const auto ladder = args.get_int_list("ladder", {});
  ASSERT_EQ(ladder.size(), 3u);
  EXPECT_EQ(ladder[0], 8);
  EXPECT_EQ(ladder[2], 2);
  EXPECT_EQ(args.get_int_list("absent", {1, 2}).size(), 2u);
  const Args bad = parse({"run", "--ladder", "8,x,2"});
  EXPECT_THROW(bad.get_int_list("ladder", {}), Error);
}

TEST(ArgsTest, RejectsMalformedTokens) {
  EXPECT_THROW(parse({"run", "oops"}), Error);       // stray positional
  EXPECT_THROW(parse({"run", "--", "v"}), Error);    // empty flag name
}

TEST(ArgsTest, UnusedTracksUnqueriedKeys) {
  const Args args = parse({"run", "--used", "1", "--typo", "2"});
  args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgsTest, RejectUnusedNamesTheCommandAndEveryUnreadFlag) {
  // `serve` flags of a removed feature must fail, not serve defaults.
  const Args args = parse({"serve", "--listen", "0", "--rung", "1",
                           "--degrade-depth", "4"});
  args.get_int("listen", -1);
  try {
    args.reject_unused();
    FAIL() << "unread flags accepted";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("serve does not take"), std::string::npos)
        << message;
    EXPECT_NE(message.find("--rung"), std::string::npos) << message;
    EXPECT_NE(message.find("--degrade-depth"), std::string::npos) << message;
    EXPECT_EQ(message.find("--listen"), std::string::npos) << message;
  }
  args.get_int("rung", -1);
  args.get_int("degrade-depth", 0);
  EXPECT_NO_THROW(args.reject_unused());
}

TEST(ArgsTest, NegativeNumbersAreNotFlags) {
  // A value starting with '-' is currently treated as the next flag —
  // the documented limitation: negative values must be passed as e.g.
  // --lambda-end 0 (all ccq flags are non-negative).  Pin the behaviour.
  const Args args = parse({"run", "--a", "--b", "3"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_EQ(args.get("a", "?"), "");
  EXPECT_EQ(args.get_int("b", 0), 3);
}

}  // namespace
}  // namespace ccq
