/**
 * @file
 * Tests for the CLI flag parser shared by the chex-campaign
 * subcommands: handler dispatch, positional collection, unknown and
 * valueless flags, and — the behavior that motivated the tests —
 * rejection of duplicate occurrences of non-repeatable flags
 * instead of silently taking the last value. Repeatable flags
 * (Repeat::Allowed, e.g. --cache) and boolean switches stay legal
 * to repeat.
 *
 * FlagParserFuzz mutates valid command lines from a fixed seed —
 * drops, duplicates, swaps or truncates tokens, joins a flag and its
 * value as `--flag=value`, inserts empty or non-ASCII tokens — and
 * parses each. parse() must never abort, and it must agree with a
 * reference walk of the grammar: Ok exactly when the walk accepts,
 * otherwise a usage error whose message names the token the walk
 * stopped at.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
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

/** The fuzzed grammar: --seed N once, --cache FILE repeatable, the
 * --quiet switch, and positionals when @p positionals. */
void
declareFuzzFlags(cli::FlagParser &p, bool positionals)
{
    p.add("--seed", "N", "a seed", [](const std::string &v) {
        return !v.empty() &&
               v.find_first_not_of("0123456789") == std::string::npos;
    });
    p.add("--cache", "FILE", "a cache file",
          [](const std::string &v) { return !v.empty(); },
          cli::Repeat::Allowed);
    p.add("--quiet", "a switch", [] {});
    if (positionals)
        p.positionals("FILE...", "input files");
}

/** The reference walk: Ok, or ExitUsage and the offending token. */
std::pair<cli::ParseStatus, std::string>
expected(const std::vector<std::string> &args, bool positionals)
{
    const auto usage = [](const std::string &token) {
        return std::make_pair(cli::ParseStatus::ExitUsage, token);
    };
    bool seed_seen = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a.empty() || a[0] != '-') {
            if (!positionals)
                return usage(a);
            continue;
        }
        if (a == "--quiet")
            continue;
        if (a != "--seed" && a != "--cache")
            return usage(a);
        if (a == "--seed" && std::exchange(seed_seen, true))
            return usage(a);
        if (i + 1 == args.size())
            return usage(a);
        const std::string &v = args[++i];
        bool digits = v.find_first_not_of("0123456789") ==
                      std::string::npos;
        if (v.empty() || (a == "--seed" && !digits))
            return usage(v);
    }
    return {cli::ParseStatus::Ok, ""};
}

/** One to three random mutations of a command line. */
std::vector<std::string>
mutate(std::vector<std::string> args, Random &rng)
{
    const char *const odd[] = {"", "\xc3\xa9", "\xff\xfe", "--s\xc3\xa9" "ed",
                               "\xe6\x97\xa5\xe6\x9c\xac", "-", "--", "--=",
                               "--seed="};
    auto pick = [&] { return rng.uniform(0, args.size() - 1); };
    for (uint64_t n = rng.uniform(1, 3); n > 0; --n) {
        uint64_t op = rng.uniform(0, 5);
        if (args.empty() && op < 4)
            op = 5;
        switch (op) {
          case 0: // drop
            args.erase(args.begin() + pick());
            break;
          case 1: { // duplicate
            std::string copy = args[pick()];
            args.insert(args.begin() + pick(), copy);
            break;
          }
          case 2: // swap
            std::swap(args[pick()], args[pick()]);
            break;
          case 3: { // truncate
            std::string &a = args[pick()];
            a.resize(rng.uniform(0, a.size()));
            break;
          }
          case 4: { // --flag=value
            size_t i = pick();
            std::string joined = args[i] + "=";
            if (i + 1 < args.size()) {
                joined += args[i + 1];
                args.erase(args.begin() + i + 1);
            }
            args[i] = joined;
            break;
          }
          default: // an empty or non-ASCII token
            args.insert(args.begin() + rng.uniform(0, args.size()),
                        odd[rng.uniform(0, std::size(odd) - 1)]);
            break;
        }
    }
    return args;
}

TEST(FlagParserFuzz, RejectionsAreUsageErrorsNamingTheToken)
{
    const std::vector<std::string> valid[] = {
        {"--seed", "12", "--cache", "a.json", "--quiet", "in.json"},
        {"--cache", "a.json", "--cache", "b.json", "--seed", "7"},
        {"x.json", "--quiet", "--quiet", "--seed", "0"},
    };
    Random rng(0xf1a95eed);
    size_t accepted = 0, rejected = 0;
    for (unsigned iter = 0; iter < 3000; ++iter) {
        bool positionals = iter % 2 == 0;
        std::vector<std::string> args =
            mutate(valid[rng.uniform(0, std::size(valid) - 1)], rng);
        std::string argv_text;
        for (const std::string &a : args)
            argv_text += " '" + a + "'";
        SCOPED_TRACE("case " + std::to_string(iter) + ":" + argv_text);

        cli::FlagParser p("prog", "sub", "summary");
        declareFuzzFlags(p, positionals);
        testing::internal::CaptureStderr();
        cli::ParseStatus status = parse(p, args);
        std::string err = testing::internal::GetCapturedStderr();

        auto [want, token] = expected(args, positionals);
        ASSERT_EQ(status, want);
        if (status == cli::ParseStatus::Ok) {
            EXPECT_EQ(err, "");
            ++accepted;
            continue;
        }
        ++rejected;
        std::string line = err.substr(0, err.find('\n'));
        ASSERT_EQ(line.rfind("prog sub: ", 0), 0u) << err;
        EXPECT_NE(line.find(token.empty() ? "''" : token),
                  std::string::npos)
            << err;
    }
    // Both outcomes are exercised, not just one.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace chex
