/**
 * @file
 * Unit tests for the base utilities: logging formatters, base64, the
 * deterministic RNG, integer math, the folded FNV-1a hasher,
 * statistics, and table rendering.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "base/base64.hh"
#include "base/fnv.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/table.hh"

namespace chex
{
namespace
{

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(csprintf("%06x", 0xabc), "000abc");
}

TEST(Base64, RoundTripsAndRejectsMalformed)
{
    // RFC 4648's vectors decode back into exactly their length, and
    // into no other.
    const std::pair<const char *, const char *> vectors[] = {
        {"", ""},         {"f", "Zg=="},         {"fo", "Zm8="},
        {"foo", "Zm9v"},  {"foob", "Zm9vYg=="},  {"fooba", "Zm9vYmE="},
        {"foobar", "Zm9vYmFy"}};
    for (auto [plain, coded] : vectors) {
        SCOPED_TRACE(coded);
        size_t n = std::strlen(plain);
        EXPECT_EQ(base64Encode(plain, n), coded);
        std::vector<uint8_t> back(n + 1);
        ASSERT_TRUE(base64Decode(coded, back.data(), n));
        EXPECT_EQ(std::string(back.begin(), back.begin() + n), plain);
        EXPECT_FALSE(base64Decode(coded, back.data(), n + 1));
    }
    std::vector<uint8_t> all(256);
    std::iota(all.begin(), all.end(), 0);
    std::vector<uint8_t> back(all.size());
    ASSERT_TRUE(base64Decode(base64Encode(all), back.data(), back.size()));
    EXPECT_EQ(back, all);

    // Bad length, characters outside the alphabet, and padding
    // anywhere but the last group's final one or two places, each at
    // the byte count the text's length implies.
    const std::pair<const char *, size_t> bad[] = {
        {"Zm9", 2},      {"Zm9v=", 3},    {"Zm9*", 3},     {"Zm9v Zm9", 6},
        {"Z===", 1},     {"=m9v", 3},     {"Zm=v", 3},     {"Zg==Zm9v", 6},
        {"Zm9vYg=a", 6}, {"Zm9vY\\==", 4}};
    uint8_t buf[8];
    for (auto [text, n] : bad)
        EXPECT_FALSE(base64Decode(text, buf, n)) << text;
}

TEST(Random, DeterministicFromSeed)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Random, UniformWithinBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, SkewedSizeWithinBounds)
{
    Random r(7);
    uint64_t below_mid = 0;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = r.skewedSize(32, 65536);
        EXPECT_GE(v, 32u);
        EXPECT_LE(v, 65536u);
        if (v < 2048)
            ++below_mid;
    }
    // The log-uniform draw skews heavily toward small sizes.
    EXPECT_GT(below_mid, 800u);
}

TEST(Random, ChanceExtremes)
{
    Random r(9);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Random, WeightedIndexRespectsWeights)
{
    Random r(11);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 3000; ++i)
        ++counts[r.weightedIndex({1.0, 0.0, 9.0})];
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0] * 4);
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(48), 6u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(roundUp(17, 16), 32u);
    EXPECT_EQ(roundDown(17, 16), 16u);
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffull);
}

/** FNV-1a 64, one byte at a time: the reference the folds must match. */
uint64_t
fnvStream(uint64_t h, const std::vector<unsigned char> &bytes)
{
    for (unsigned char b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

/** A tag's byte stream (NUL included) then @p v's 8 LE bytes. */
std::vector<unsigned char>
fieldBytes(const char *tag, uint64_t v)
{
    std::vector<unsigned char> out(tag, tag + std::strlen(tag) + 1);
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
    return out;
}

TEST(Fnv, FoldedMatchesByteStream)
{
    Random rng(33);

    // Random tags of 1-40 bytes, any byte values, folded at run time
    // and applied to every low byte under random high bits.
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<unsigned char> tag(rng.uniform(1, 40));
        for (unsigned char &b : tag)
            b = static_cast<unsigned char>(rng.uniform(0, 255));
        FoldedBytes f = foldBytes(tag.data(), tag.size());
        uint64_t high = rng.next() & ~0xffull;
        for (uint64_t low = 0; low < 256; ++low)
            ASSERT_EQ(applyFold(high | low, f),
                      fnvStream(high | low, tag))
                << "trial " << trial << " low " << low;
    }

    // Values whose zero high bytes fold: 0, every one-byte value,
    // both sides of each 2^8k boundary, and 2^64 - 1.
    std::vector<uint64_t> values;
    for (uint64_t v = 0; v < 256; ++v)
        values.push_back(v);
    for (int k = 1; k < 8; ++k) {
        uint64_t boundary = 1ull << (8 * k);
        values.insert(values.end(), {boundary - 1, boundary, boundary + 1});
    }
    values.push_back(~0ull);
    for (uint64_t v : values) {
        TaggedHasher h;
        h.u64("field"_tag, v);
        EXPECT_EQ(h.digest(), fnvStream(FnvBasis, fieldBytes("field", v)))
            << v;
    }

    // A string field: tag, length field, then the bytes themselves.
    TaggedHasher h;
    h.str("name"_tag, "abc");
    std::vector<unsigned char> want = {'n', 'a', 'm', 'e', 0};
    std::vector<unsigned char> len = fieldBytes("len", 3);
    want.insert(want.end(), len.begin(), len.end());
    want.insert(want.end(), {'a', 'b', 'c'});
    EXPECT_EQ(h.digest(), fnvStream(FnvBasis, want));
}

TEST(Stats, ScalarArithmetic)
{
    stats::StatGroup g("g");
    stats::Scalar s;
    g.addScalar("s", "test", s);
    s += 2;
    ++s;
    s++;
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    EXPECT_DOUBLE_EQ(g.get("s"), 4.0);
    s = 7;
    EXPECT_EQ(s.count(), 7u);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, ScalarCountsPastDoublePrecisionCliff)
{
    // 2^53 is the first integer a double cannot distinguish from its
    // successor: 9007199254740992.0 + 1.0 == 9007199254740992.0, so
    // a double-backed counter silently stops counting there. The
    // integer Scalar must keep exact counts across the cliff.
    constexpr uint64_t cliff = 1ull << 53;
    stats::Scalar s;
    s = cliff;
    ++s;
    EXPECT_EQ(s.count(), cliff + 1);
    s += 1;
    EXPECT_EQ(s.count(), cliff + 2);

    // The same arithmetic through doubles is a silent no-op — the
    // failure mode this test pins down.
    double d = static_cast<double>(cliff);
    EXPECT_EQ(d + 1.0, d);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    stats::StatGroup g("g");
    stats::Scalar a;
    g.addScalar("a", "", a);
    g.addFormula("double_a", "", [&a]() { return a.value() * 2; });
    a = 21;
    EXPECT_DOUBLE_EQ(g.get("double_a"), 42.0);
}

TEST(Stats, NestedLookup)
{
    stats::StatGroup parent("parent");
    stats::StatGroup child("child");
    stats::Scalar s;
    child.addScalar("x", "", s);
    parent.addChild(&child);
    s = 7;
    EXPECT_DOUBLE_EQ(parent.get("child.x"), 7.0);
    EXPECT_TRUE(parent.has("child.x"));
    EXPECT_FALSE(parent.has("child.y"));
}

TEST(Stats, HistogramBucketsAndMoments)
{
    stats::Histogram h(0, 100, 10);
    h.sample(5);
    h.sample(5);
    h.sample(95);
    h.sample(-1);  // underflow
    h.sample(101); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.minSample(), -1.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 101.0);
}

TEST(Stats, ResetClearsEverything)
{
    stats::StatGroup g("g");
    stats::Scalar s;
    stats::Histogram h(0, 10, 5);
    g.addScalar("s", "", s);
    g.addHistogram("h", "", h);
    s = 3;
    h.sample(1);
    g.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, DumpContainsEntries)
{
    stats::StatGroup g("sys");
    stats::Scalar s;
    g.addScalar("cycles", "total cycles", s);
    s = 100;
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("sys.cycles = 100"), std::string::npos);
}

TEST(Table, RendersAlignedRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find("+"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

} // namespace
} // namespace chex
