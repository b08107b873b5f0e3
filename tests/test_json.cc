/**
 * @file
 * The JSON writer's exact bytes, the string scanner at every byte
 * value and offset, and deterministic raw-byte fuzzing of the parser
 * and the campaign-report reader.
 *
 * The fuzzer starts from a fixed corpus (a small campaign report, a
 * tiny machine snapshot and edge-case documents) and, from a fixed
 * seed and for a fixed number of iterations, applies one to three
 * byte mutations: flip, insert, delete, truncate, or duplicate a
 * span. Three properties must hold:
 *  - Value::parse never aborts: it accepts, or rejects with an error
 *    naming a byte offset;
 *  - an accepted document is re-read exactly: dump(parse(x)) parses
 *    again and dumps to the same bytes;
 *  - driver::fromJson never aborts, and a report it accepts writes
 *    out to a document it accepts again unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/random.hh"
#include "driver/report.hh"
#include "snapshot_docs.hh"

using namespace chex;

namespace
{

/** Every escape, the number edge cases and empty aggregates. */
json::Value
edgeValue()
{
    using json::Value;
    return Value::object()
        .set("escapes", "\"\\/\b\f\n\r\t\x01\x1f\x7f \xc3\xa9")
        .set("key\t\"esc\"", "v")
        .set("u64max", UINT64_MAX)
        .set("zero", uint64_t{0})
        .set("pow53m1", 9007199254740991.0)
        .set("pow53p1", 9007199254740993.0)
        .set("neg", -42)
        .set("neg64", int64_t{-9007199254740993})
        .set("tenth", 0.1)
        .set("big", 1e300)
        .set("negzero", -0.0)
        .set("nan", std::nan(""))
        .set("inf", INFINITY)
        .set("ninf", -INFINITY)
        .set("frac", -2.5)
        .set("yes", true)
        .set("no", false)
        .set("none", Value())
        .set("empty", Value::object()
                          .set("o", Value::object())
                          .set("a", Value::array()))
        .set("nested", Value::array()
                           .push(Value::array())
                           .push(Value::object())
                           .push(Value::array().push(Value::array())));
}

// edgeValue()'s text, byte for byte: saved reports, snapshot
// bundles and their state hashes depend on these bytes.
const char EdgeCompact[] =
    "{\"escapes\":\"\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f \xc3\xa9\","
    "\"key\\t\\\"esc\\\"\":\"v\",\"u64max\":18446744073709551615,"
    "\"zero\":0,\"pow53m1\":9007199254740991,"
    "\"pow53p1\":9007199254740992,\"neg\":-42,"
    "\"neg64\":-9007199254740992,\"tenth\":0.10000000000000001,"
    "\"big\":1.0000000000000001e+300,\"negzero\":-0,\"nan\":null,"
    "\"inf\":null,\"ninf\":null,\"frac\":-2.5,\"yes\":true,\"no\":false,"
    "\"none\":null,\"empty\":{\"o\":{},\"a\":[]},"
    "\"nested\":[[],{},[[]]]}";

const char EdgeIndented[] =
    "{\n"
    "  \"escapes\": \"\\\"\\\\/\\b\\f\\n\\r\\t\\u0001\\u001f\x7f \xc3\xa9\",\n"
    "  \"key\\t\\\"esc\\\"\": \"v\",\n"
    "  \"u64max\": 18446744073709551615,\n"
    "  \"zero\": 0,\n"
    "  \"pow53m1\": 9007199254740991,\n"
    "  \"pow53p1\": 9007199254740992,\n"
    "  \"neg\": -42,\n"
    "  \"neg64\": -9007199254740992,\n"
    "  \"tenth\": 0.10000000000000001,\n"
    "  \"big\": 1.0000000000000001e+300,\n"
    "  \"negzero\": -0,\n"
    "  \"nan\": null,\n"
    "  \"inf\": null,\n"
    "  \"ninf\": null,\n"
    "  \"frac\": -2.5,\n"
    "  \"yes\": true,\n"
    "  \"no\": false,\n"
    "  \"none\": null,\n"
    "  \"empty\": {\n"
    "    \"o\": {},\n"
    "    \"a\": []\n"
    "  },\n"
    "  \"nested\": [\n"
    "    [],\n"
    "    {},\n"
    "    [\n"
    "      []\n"
    "    ]\n"
    "  ]\n"
    "}";

/** A two-row campaign report: one result with a violation, one
 * failure. */
std::string
smallReport()
{
    driver::CampaignReport report;
    report.workers = 2;
    report.seed = 10451216379200823296ull;
    report.jobsRun = 2;
    report.jobsFailed = 1;
    report.wallSeconds = 0.25;
    report.serialSeconds = 0.5;
    report.speedup = 2.0;
    report.totalCycles = 123456;
    report.totalUops = 234567;
    report.aggregateIpc = 1.9;

    driver::JobResult ok;
    ok.label = "mcf/ucode-pred";
    ok.profileName = "mcf";
    ok.variant = "ucode-pred";
    ok.seed = 42;
    ok.specHash = 0x0123456789abcdefull;
    ok.attempts = 1;
    ok.wallSeconds = 0.125;
    ok.attemptSeconds = {0.125};
    ok.run.exited = true;
    ok.run.violationDetected = true;
    ok.run.cycles = 123456;
    ok.run.uops = 234567;
    ok.run.ipc = 1.9;
    ok.run.violations.push_back({Violation::OutOfBounds, 0x401000,
                                 0x7fff0000, 3});
    report.jobs.push_back(ok);

    driver::JobResult failed;
    failed.index = 1;
    failed.label = "lbm/\"quoted\"\n";
    failed.profileName = "lbm";
    failed.variant = "baseline";
    failed.seed = 7;
    failed.failed = true;
    failed.attempts = 2;
    failed.error = "boom\t\x01";
    failed.cause = driver::FailureCause::Exception;
    failed.wallSeconds = 0.375;
    failed.attemptSeconds = {0.125, 0.25};
    report.jobs.push_back(failed);

    std::ostringstream os;
    driver::writeReport(report, os);
    return os.str();
}

constexpr uint64_t FuzzSeed = 0x15005eed;
constexpr unsigned IterationsPerDocument = 600;

/** One random byte, biased towards JSON's structural characters. */
char
randomByte(Random &rng)
{
    static const char syntax[] = "{}[]:,\"\\-+.0123456789eEtrufalsn/ ";
    if (rng.chance(0.75))
        return syntax[rng.uniform(0, sizeof(syntax) - 2)];
    return static_cast<char>(rng.uniform(0, 255));
}

/** @p text with one to three byte mutations applied. */
std::string
mutated(std::string text, Random &rng)
{
    for (uint64_t n = rng.uniform(1, 3); n > 0; --n) {
        if (text.empty()) {
            text += randomByte(rng);
            continue;
        }
        size_t at = rng.uniform(0, text.size() - 1);
        switch (rng.uniform(0, 4)) {
          case 0: // flip
            text[at] = randomByte(rng);
            break;
          case 1: // insert
            text.insert(text.begin() + rng.uniform(0, text.size()),
                        randomByte(rng));
            break;
          case 2: // delete
            text.erase(at, rng.uniform(1, 4));
            break;
          case 3: // truncate
            text.resize(at);
            break;
          default: { // duplicate a span
            std::string span =
                text.substr(at, rng.uniform(1, std::min<size_t>(
                                                   64, text.size() - at)));
            text.insert(rng.uniform(0, text.size()), span);
          }
        }
    }
    return text;
}

} // anonymous namespace

TEST(Json, WriterBytesArePinned)
{
    EXPECT_EQ(edgeValue().dump(), EdgeCompact);
    EXPECT_EQ(edgeValue().dump(2), EdgeIndented);
    std::ostringstream os;
    edgeValue().write(os, 2);
    EXPECT_EQ(os.str(), EdgeIndented);
    // The text reads back to the same bytes (NaN and Inf as null).
    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(EdgeIndented, back, &err)) << err;
    EXPECT_EQ(back.dump(), EdgeCompact);
    EXPECT_EQ(back.at("u64max").asUint64(), UINT64_MAX);
    EXPECT_TRUE(std::signbit(back.at("negzero").number()));
}

TEST(Json, EveryByteIsEscapedOrReadAtEveryOffset)
{
    // Strings are scanned several bytes at a time, so put each byte
    // value at each offset of a word-spanning string: the writer
    // escapes exactly the quote, the backslash and the control bytes,
    // and the parser refuses exactly those raw.
    for (unsigned byte = 0; byte < 256; ++byte) {
        for (size_t at = 0; at < 20; ++at) {
            std::string s(24, 'x');
            s[at] = static_cast<char>(byte);
            SCOPED_TRACE("byte " + std::to_string(byte) + " at " +
                         std::to_string(at));
            bool special = byte < 0x20 || byte == '"' || byte == '\\';
            std::string text = json::Value(s).dump();
            EXPECT_EQ(text.size() > s.size() + 2, special) << text;
            EXPECT_EQ(std::count_if(text.begin(), text.end(),
                                    [](unsigned char c) { return c < 0x20; }),
                      0);
            json::Value back;
            ASSERT_TRUE(json::Value::parse(text, back));
            EXPECT_EQ(back.str(), s);
            EXPECT_EQ(json::Value::parse("\"" + s + "\"", back), !special);
        }
    }
}

TEST(JsonFuzz, ParseNeverAbortsAndRedumpsCanonically)
{
    std::vector<std::string> corpus = {
        smallReport(),
        snapdocs::tinySnapshot(VariantKind::MicrocodePrediction).dump(),
        EdgeCompact,
        EdgeIndented,
        "[18446744073709551615,18446744073709551616,-1,1e300,-0.5e-7]",
        "{\"a\":{\"b\":[\"\\u00e9\\/\",true,null]},\"c\":{}}",
    };
    Random rng(FuzzSeed);
    unsigned accepted = 0, rejected = 0, reports = 0;
    for (size_t doc = 0; doc < corpus.size(); ++doc) {
        for (unsigned iter = 0; iter < IterationsPerDocument; ++iter) {
            std::string text = mutated(corpus[doc], rng);
            SCOPED_TRACE("document " + std::to_string(doc) +
                         ", iteration " + std::to_string(iter));
            json::Value v;
            std::string err;
            if (!json::Value::parse(text, v, &err)) {
                ++rejected;
                EXPECT_EQ(err.rfind("json: ", 0), 0u) << err;
                EXPECT_NE(err.find(" at byte "), std::string::npos) << err;
                continue;
            }
            ++accepted;
            std::string once = v.dump();
            json::Value again;
            ASSERT_TRUE(json::Value::parse(once, again, &err)) << err;
            ASSERT_EQ(again.dump(), once);

            driver::CampaignReport report;
            if (!driver::fromJson(v, report, &err))
                continue;
            ++reports;
            std::string written = driver::toJson(report).dump();
            json::Value reread;
            ASSERT_TRUE(json::Value::parse(written, reread, &err)) << err;
            driver::CampaignReport back;
            ASSERT_TRUE(driver::fromJson(reread, back, &err)) << err;
            EXPECT_EQ(driver::toJson(back).dump(), written);
        }
    }
    // Both outcomes occur, and some mutated reports still load.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(reports, 0u);
}
