/**
 * @file
 * Security evaluation tests (Section VII-A): every exploit in the
 * RIPE-style sweep, the ASan-style unit suite, and the
 * How2Heap-style suite must be flagged by the prediction-driven
 * microcode variant with the expected anchor violation — and each
 * must demonstrably *succeed* (corrupt state) on the insecure
 * baseline, proving the exploits are real.
 *
 * The cases come through the central attack registry
 * (attacks/registry.hh), the same API the campaign driver resolves
 * attack IDs against.
 */

#include <gtest/gtest.h>

#include "attacks/registry.hh"
#include "sim/system.hh"

namespace chex
{
namespace
{

const std::vector<AttackCase> &
suiteCases(const std::string &token)
{
    for (const AttackSuite &suite : attackSuites())
        if (suite.name == token)
            return suite.cases;
    static const std::vector<AttackCase> none;
    ADD_FAILURE() << "registry has no suite '" << token << "'";
    return none;
}

RunResult
runUnder(const AttackCase &attack, VariantKind kind)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    System sys(cfg);
    sys.load(attack.program);
    return sys.run();
}

void
expectDetected(const AttackCase &attack)
{
    RunResult r = runUnder(attack, VariantKind::MicrocodePrediction);
    ASSERT_TRUE(r.violationDetected)
        << attack.suite << "/" << attack.name << " was not detected";
    EXPECT_EQ(r.violations[0].kind, attack.expected)
        << attack.suite << "/" << attack.name << ": flagged "
        << violationName(r.violations[0].kind) << ", expected "
        << violationName(attack.expected);
}

void
expectBaselineSucceeds(const AttackCase &attack)
{
    SystemConfig cfg;
    cfg.variant.kind = VariantKind::Baseline;
    System sys(cfg);
    sys.load(attack.program);
    RunResult r = sys.run();
    EXPECT_FALSE(r.violationDetected);
    uint64_t got = sys.memory().read(attack.indicatorAddr, 8);
    EXPECT_EQ(got, attack.indicatorExpect)
        << attack.suite << "/" << attack.name
        << ": exploit did not succeed on the insecure baseline";
}

class AsanSuiteTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(AsanSuiteTest, DetectedWithExpectedAnchor)
{
    expectDetected(suiteCases("asan")[GetParam()]);
}

TEST_P(AsanSuiteTest, SucceedsOnBaseline)
{
    expectBaselineSucceeds(suiteCases("asan")[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, AsanSuiteTest,
    ::testing::Range<size_t>(0, suiteCases("asan").size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return suiteCases("asan")[info.param].name;
    });

class How2HeapTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(How2HeapTest, DetectedWithExpectedAnchor)
{
    expectDetected(suiteCases("how2heap")[GetParam()]);
}

TEST_P(How2HeapTest, SucceedsOnBaseline)
{
    expectBaselineSucceeds(suiteCases("how2heap")[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, How2HeapTest,
    ::testing::Range<size_t>(0, suiteCases("how2heap").size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return suiteCases("how2heap")[info.param].name;
    });

class RipeTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(RipeTest, DetectedWithExpectedAnchor)
{
    expectDetected(suiteCases("ripe")[GetParam()]);
}

TEST_P(RipeTest, SucceedsOnBaseline)
{
    expectBaselineSucceeds(suiteCases("ripe")[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RipeTest,
    ::testing::Range<size_t>(0, suiteCases("ripe").size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = suiteCases("ripe")[info.param].name;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(Security, How2HeapHas18Cases)
{
    // The suite sizes of the paper's Section VII-A table, and every
    // case carries the corruption indicator its baseline test reads.
    EXPECT_EQ(suiteCases("ripe").size(), 114u);
    EXPECT_EQ(suiteCases("asan").size(), 18u);
    EXPECT_EQ(suiteCases("how2heap").size(), 18u);
    for (const AttackSuite &suite : attackSuites())
        for (const AttackCase &attack : suite.cases)
            EXPECT_NE(attack.indicatorAddr, 0u)
                << attackCaseId(attack) << " has no corruption indicator";
}

TEST(Security, AllVariantsOfChex86DetectFastbinDup)
{
    const AttackCase attack = suiteCases("how2heap")[0];
    for (VariantKind kind :
         {VariantKind::HardwareOnly, VariantKind::BinaryTranslation,
          VariantKind::MicrocodeAlwaysOn,
          VariantKind::MicrocodePrediction}) {
        RunResult r = runUnder(attack, kind);
        EXPECT_TRUE(r.violationDetected) << variantName(kind);
    }
}

TEST(Security, AsanModelDetectsHeapOob)
{
    RunResult r = runUnder(suiteCases("asan")[0], VariantKind::Asan);
    EXPECT_TRUE(r.violationDetected);
}

TEST(Security, AsanModelDetectsUafViaQuarantine)
{
    RunResult r = runUnder(suiteCases("asan")[4], VariantKind::Asan);
    EXPECT_TRUE(r.violationDetected);
}

} // namespace
} // namespace chex
