/**
 * @file
 * End-to-end System tests: program execution, allocation
 * interception, capability generation, violation detection, and
 * run-result bookkeeping under the default prediction-driven
 * microcode variant.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/system.hh"
#include "workload/generator.hh"

namespace chex
{
namespace
{

SystemConfig
variantConfig(VariantKind kind)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    return cfg;
}

TEST(System, SmokeProgramRunsToCompletion)
{
    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(generateSmokeProgram(4, 256));
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.violationDetected);
    EXPECT_EQ(r.totalAllocations, 4u);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.uops, r.macroOps);
}

TEST(System, SmokeProgramOnBaseline)
{
    System sys(variantConfig(VariantKind::Baseline));
    sys.load(generateSmokeProgram(4, 256));
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.violationDetected);
    EXPECT_EQ(r.capChecksInjected, 0u);
}

TEST(System, CapabilitiesAreGeneratedAndFreed)
{
    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(generateSmokeProgram(3, 128));
    RunResult r = sys.run();
    ASSERT_TRUE(r.exited);
    // 3 heap capabilities + 1 global (bufs) were created; all heap
    // ones freed.
    EXPECT_EQ(sys.capabilityTable().totalCapabilities(), 4u);
    EXPECT_EQ(sys.capabilityTable().liveCapabilities(), 1u);
}

TEST(System, ChecksAreInjectedForHeapDerefs)
{
    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(generateSmokeProgram(4, 256));
    RunResult r = sys.run();
    // Each buffer is dereferenced several times (store, load,
    // inc-mem cracks to ld+st).
    EXPECT_GE(r.capChecksInjected, 4u * 3u);
}

TEST(System, OutOfBoundsStoreIsFlagged)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 64), 1, 8); // one past the end
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::OutOfBounds);
    EXPECT_FALSE(r.exited);
}

TEST(System, InBoundsAccessesAreClean)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 0), 7, 8);
    as.movmi(memAt(RAX, 56), 9, 8); // last word
    as.movrm(RBX, memAt(RAX, 0));
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.violationDetected);
    EXPECT_EQ(sys.machine().reg(RBX), 7u);
}

TEST(System, UseAfterFreeIsFlagged)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movrr(R12, RAX);
    as.movrr(RDI, RAX);
    as.call(IntrinsicKind::Free);
    as.movrm(RBX, memAt(R12, 0));
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::UseAfterFree);
}

TEST(System, PointerTransferThroughRegistersKeepsProtection)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movrr(RBX, RAX);   // MOV rule
    as.addri(RBX, 16);    // ADD rule
    as.movmi(memAt(RBX, 56), 1, 8); // 16+56 = 72 > 64: OOB
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::OutOfBounds);
}

TEST(System, SpilledPointerReloadIsTracked)
{
    Assembler as;
    uint64_t slot = as.addGlobal("slot", 8);
    (void)slot;
    uint64_t pool = as.poolSlotFor("slot");

    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movrm(R13, memRip(pool));
    as.movmr(memAt(R13, 0), RAX);   // spill to global
    as.movri(RAX, 0);               // clobber the register
    as.movrm(RBX, memAt(R13, 0));   // reload the alias
    as.movmi(memAt(RBX, 72), 1, 8); // OOB through the reload
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::OutOfBounds);
    EXPECT_GE(r.pointerSpills, 1u);
    EXPECT_GE(r.pointerReloads, 1u);
}

TEST(System, GlobalCapabilityFromSymbolTable)
{
    Assembler as;
    uint64_t g = as.addGlobal("table", 48);
    (void)g;
    uint64_t pool = as.poolSlotFor("table");
    as.movrm(R12, memRip(pool));
    as.movmi(memAt(R12, 48), 1, 8); // just past the global
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::OutOfBounds);
}

TEST(System, WildPointerDereferenceFlagged)
{
    Assembler as;
    as.movri(RCX, 0x7fff2000);
    as.movrm(RDX, memAt(RCX, 0));
    as.hlt();

    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(as.finalize());
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::WildPointer);
}

TEST(System, BaselineDoesNotDetectAnything)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 200), 1, 8); // far out of bounds
    as.hlt();

    System sys(variantConfig(VariantKind::Baseline));
    sys.load(as.finalize());
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.violationDetected);
}

TEST(System, WorkloadProgramRunsCleanly)
{
    BenchmarkProfile p = profileByName("deepsjeng");
    p.iterations = 400; // keep the test fast
    System sys(variantConfig(VariantKind::MicrocodePrediction));
    sys.load(generateWorkload(p, 7));
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited) << "hijacked=" << r.hijackedControlFlow
                          << " cap=" << r.hitMacroCap;
    EXPECT_FALSE(r.violationDetected)
        << violationName(r.violations.empty() ? Violation::None
                                              : r.violations[0].kind);
}

TEST(System, DefaultsMatchTableIII)
{
    // Every row of the paper's Table III (a Skylake-class core), in
    // its order. The branch-predictor row names the model (TAGE, as
    // LTAGE) and carries no number.
    const SystemConfig s;
    const CoreConfig &c = s.core;
    const HierarchyConfig &h = s.hierarchy;
    EXPECT_DOUBLE_EQ(c.frequencyGHz, 3.4);
    EXPECT_EQ(c.fetchWidth, 4u); // fused µops
    EXPECT_EQ(c.issueWidth, 6u); // unfused µops
    EXPECT_EQ(c.robEntries, 224u);
    EXPECT_EQ(c.iqEntries, 64u);
    EXPECT_EQ(c.lqEntries, 72u);
    EXPECT_EQ(c.sqEntries, 56u);
    EXPECT_EQ(c.intRegs, 180u);
    EXPECT_EQ(c.fpRegs, 168u);
    EXPECT_EQ(c.bpred.rasEntries, 64u);
    EXPECT_EQ(c.bpred.btbEntries, 4096u);
    // One L1 geometry serves the I and D caches: 32 KB, 8-way.
    EXPECT_EQ(h.l1Sets * h.l1Ways * h.lineBytes, 32u * 1024);
    EXPECT_EQ(h.l1Ways, 8u);
    EXPECT_EQ(c.intAluUnits, 6u);
    EXPECT_EQ(c.intMultUnits, 1u);
    EXPECT_EQ(c.fpAluUnits, 3u);
    EXPECT_EQ(c.simdUnits, 3u);
    // The CHEx86 structures (Sections V-B, V-C and VII-A).
    EXPECT_EQ(s.capCacheEntries, 64u);
    EXPECT_EQ(s.aliasCache.sets * s.aliasCache.ways, 256u);
    EXPECT_EQ(s.aliasCache.ways, 2u);
    EXPECT_EQ(s.aliasCache.victimEntries, 32u);
    EXPECT_EQ(s.aliasPredictor.entries, 512u);
    EXPECT_EQ(s.aliasPredictor.confidenceMax, 3); // 2-bit counters
    EXPECT_EQ(s.maxAllocSize, uint64_t{1} << 30);
}

} // namespace
} // namespace chex
