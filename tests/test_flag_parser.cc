/**
 * @file
 * Tests for the CLI flag parser shared by the chex-campaign
 * subcommands: handler dispatch, positional collection, unknown and
 * valueless flags, and — the behavior that motivated the tests —
 * rejection of duplicate occurrences of non-repeatable flags
 * instead of silently taking the last value. Repeatable flags
 * (Repeat::Allowed, e.g. --cache) and boolean switches stay legal
 * to repeat.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flag_parser.hh"

namespace chex
{
namespace
{

/** argv adapter: parse() wants mutable char** like main() gets. */
cli::ParseStatus
parse(cli::FlagParser &parser, std::vector<std::string> args)
{
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>("prog"));
    for (std::string &a : args)
        argv.push_back(a.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data(),
                        1);
}

TEST(FlagParser, DispatchesValuesSwitchesAndPositionals)
{
    cli::FlagParser p("prog", "sub", "summary");
    std::string value;
    int hits = 0;
    p.add("--value", "V", "a value", [&](const std::string &v) {
        value = v;
        return true;
    });
    p.add("--switch", "a switch", [&]() { ++hits; });
    p.positionals("FILE...", "input files");

    EXPECT_EQ(parse(p, {"--switch", "a.json", "--value", "x",
                        "b.json"}),
              cli::ParseStatus::Ok);
    EXPECT_EQ(value, "x");
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(p.positionalArgs(),
              (std::vector<std::string>{"a.json", "b.json"}));
    EXPECT_TRUE(p.given("--value"));
    EXPECT_TRUE(p.given("--switch"));
    EXPECT_FALSE(p.given("--unregistered"));
}

TEST(FlagParser, RejectsUnknownAndValuelessFlags)
{
    cli::FlagParser p("prog", "sub", "summary");
    p.add("--value", "V", "a value",
          [](const std::string &) { return true; });

    EXPECT_EQ(parse(p, {"--nope"}), cli::ParseStatus::ExitUsage);
    EXPECT_EQ(parse(p, {"--value"}), cli::ParseStatus::ExitUsage);
    EXPECT_EQ(parse(p, {"stray"}), cli::ParseStatus::ExitUsage);
}

TEST(FlagParser, HandlerRejectionIsAUsageError)
{
    cli::FlagParser p("prog", "sub", "summary");
    p.add("--num", "N", "a number",
          [](const std::string &v) { return v == "1"; });
    EXPECT_EQ(parse(p, {"--num", "1"}), cli::ParseStatus::Ok);
    EXPECT_EQ(parse(p, {"--num", "x"}), cli::ParseStatus::ExitUsage);
}

TEST(FlagParser, RejectsDuplicateNonRepeatableFlags)
{
    cli::FlagParser p("prog", "sub", "summary");
    std::string value;
    p.add("--seed", "S", "a seed", [&](const std::string &v) {
        value = v;
        return true;
    });

    // The duplicate is refused loudly — before it, "--seed 1
    // --seed 2" silently ran with seed 2.
    EXPECT_EQ(parse(p, {"--seed", "1", "--seed", "2"}),
              cli::ParseStatus::ExitUsage);
    // The first occurrence was consumed before the duplicate was
    // seen; the caller exits on ExitUsage, so that is harmless.
    EXPECT_EQ(value, "1");
}

TEST(FlagParser, RepeatableFlagsAccumulate)
{
    cli::FlagParser p("prog", "sub", "summary");
    std::vector<std::string> paths;
    p.add("--cache", "FILE", "a cache file",
          [&](const std::string &v) {
              paths.push_back(v);
              return true;
          },
          cli::Repeat::Allowed);

    EXPECT_EQ(parse(p, {"--cache", "a.json", "--cache", "b.json"}),
              cli::ParseStatus::Ok);
    EXPECT_EQ(paths, (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(FlagParser, SwitchesMayRepeat)
{
    cli::FlagParser p("prog", "sub", "summary");
    int hits = 0;
    p.add("--quiet", "a switch", [&]() { ++hits; });
    EXPECT_EQ(parse(p, {"--quiet", "--quiet"}),
              cli::ParseStatus::Ok);
    EXPECT_EQ(hits, 2);
}

TEST(FlagParser, FreshParseForgetsPriorOccurrences)
{
    // One parser object re-parsed (as tests do) must not carry
    // duplicate-detection state across parse() calls.
    cli::FlagParser p("prog", "sub", "summary");
    p.add("--seed", "S", "a seed",
          [](const std::string &) { return true; });
    EXPECT_EQ(parse(p, {"--seed", "1"}), cli::ParseStatus::Ok);
    EXPECT_EQ(parse(p, {"--seed", "2"}), cli::ParseStatus::Ok);
    EXPECT_TRUE(p.given("--seed"));
    EXPECT_EQ(parse(p, {}), cli::ParseStatus::Ok);
    EXPECT_FALSE(p.given("--seed"));
}

} // namespace
} // namespace chex
