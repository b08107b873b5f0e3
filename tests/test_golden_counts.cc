/**
 * @file
 * Golden retired-work counts for every enforcement variant on one
 * pinned workload (xalancbmk profile, scale 1, seed 1). The hot-path
 * optimizations (flat shadow-structure lookups, integer stat
 * counters, translation/walk memos) are host-side only: simulated
 * macro-ops, µops, and cycles must not move by even one. Any drift
 * here means an "optimization" changed simulated semantics, which is
 * a correctness bug regardless of how much wall clock it saves.
 *
 * If a deliberate model change shifts these numbers, re-derive the
 * goldens from a scale-1 run of each variant (this test's failure
 * messages print the new values) and regenerate BENCH_paper.json,
 * whose xalancbmk rows hold the same cell's cycles and µops, in the
 * same commit.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/system.hh"
#include "ucode/variant.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace
{

struct GoldenRow
{
    VariantKind kind;
    uint64_t macroOps;
    uint64_t uops;
    uint64_t cycles;
};

constexpr GoldenRow kGoldens[] = {
    {VariantKind::Baseline, 478975, 743341, 340500},
    {VariantKind::HardwareOnly, 478975, 753241, 449997},
    {VariantKind::BinaryTranslation, 673430, 1142151, 503308},
    {VariantKind::MicrocodeAlwaysOn, 478975, 963696, 459719},
    {VariantKind::MicrocodePrediction, 478975, 911791, 443655},
    {VariantKind::Asan, 1256795, 1885630, 843086},
};

TEST(GoldenCounts, ThroughputWorkloadRetiresExactCounts)
{
    // Deliberately NOT scaled by CHEX_BENCH_SCALE: the goldens are
    // only valid for the exact scale-1 workload.
    BenchmarkProfile profile = profileByName("xalancbmk");
    for (const GoldenRow &g : kGoldens) {
        SystemConfig cfg;
        cfg.variant.kind = g.kind;
        System sys(cfg);
        sys.load(generateWorkload(profile, 1));
        RunResult r = sys.run();
        ASSERT_TRUE(r.exited) << variantName(g.kind);
        EXPECT_EQ(r.macroOps, g.macroOps) << variantName(g.kind);
        EXPECT_EQ(r.uops, g.uops) << variantName(g.kind);
        EXPECT_EQ(r.cycles, g.cycles) << variantName(g.kind);
    }
}

} // namespace
} // namespace chex
