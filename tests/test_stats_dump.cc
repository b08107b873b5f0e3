/**
 * @file
 * Stats-dump and Spectre-v1-structural tests.
 *
 * The stats dump exposes a gem5-style tree of the run's counters.
 *
 * The Spectre tests document the property of Section III: CHEx86's
 * capability check is part of the same macro-op as the dereference
 * (injected into its micro-op crack), so a Spectre-v1 gadget cannot
 * bypass it the way it bypasses a software bounds check — the check
 * travels with the access itself.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/fnv.hh"
#include "base/logging.hh"
#include "isa/assembler.hh"
#include "sim/system.hh"
#include "workload/generator.hh"

namespace chex
{
namespace
{

TEST(StatsDump, ContainsAllSubsystems)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.load(generateSmokeProgram(4, 128));
    sys.run();

    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();
    for (const char *key :
         {"system.core.cycles", "system.core.ipc",
          "system.capabilities.total", "system.heap.totalAllocs",
          "system.tracker.loads", "system.l1d.hits",
          "system.l2.misses"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(StatsDump, ValuesMatchRunResult)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.load(generateSmokeProgram(4, 128));
    RunResult r = sys.run();

    std::ostringstream os;
    sys.dumpStats(os);
    std::string out = os.str();
    EXPECT_NE(out.find("system.core.cycles = " +
                       std::to_string(r.cycles)),
              std::string::npos);
    EXPECT_NE(out.find("system.heap.totalAllocs = 4"),
              std::string::npos);
}

/** FNV-1a digest of @p text, as 16 hex digits. */
std::string
textDigest(const std::string &text)
{
    TaggedHasher h;
    h.bytes(text.data(), text.size());
    return csprintf("%016llx",
                    static_cast<unsigned long long>(h.digest()));
}

TEST(StatsDump, TreeBytesArePinned)
{
    // The text and JSON dumps of one smoke run, by digest, under a
    // variant without and one with capability checks: every name,
    // description, value and order in the tree is in the pin.
    struct Pin
    {
        VariantKind kind;
        const char *text;
        const char *json;
    };
    for (const Pin &pin :
         {Pin{VariantKind::Baseline, "411568a4153513e6",
              "eeb0d4391912a8af"},
          Pin{VariantKind::MicrocodePrediction, "e15aba400ab25240",
              "4c42907020b0b12c"}}) {
        SystemConfig cfg;
        cfg.variant.kind = pin.kind;
        System sys(cfg);
        sys.load(generateSmokeProgram(6, 128));
        sys.run();
        std::ostringstream text, json;
        sys.dumpStats(text);
        sys.dumpStatsJson(json);
        EXPECT_EQ(textDigest(text.str()), pin.text)
            << variantName(pin.kind);
        EXPECT_EQ(textDigest(json.str()), pin.json)
            << variantName(pin.kind);
    }
}

/**
 * A Spectre-v1-shaped gadget:
 *   if (idx < 8) y = buf[idx];   // idx attacker-controlled, = 100
 *
 * With a software bounds check, the access executes speculatively
 * under a mispredicted branch. In CHEx86 the capCheck micro-op is
 * injected into the *access's own* macro-op crack, so wherever the
 * access goes, the check goes.
 */
Program
spectreGadget(bool guarded, int64_t idx)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movrr(R12, RAX);
    as.movri(RBX, idx);
    auto skip = as.newLabel();
    if (guarded) {
        as.cmpri(RBX, 8);
        as.jcc(CondCode::AE, skip);
    }
    as.movrm(RCX, memAt(R12, 0, RBX, 8)); // buf[idx]
    as.bind(skip);
    as.hlt();
    return as.finalize();
}

TEST(Spectre, InBoundsGuardedAccessIsClean)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.load(spectreGadget(true, 3));
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.violationDetected);
}

TEST(Spectre, ArchitecturallyDeadOobAccessDoesNotExecute)
{
    // The guard architecturally kills the access: nothing to flag.
    SystemConfig cfg;
    System sys(cfg);
    sys.load(spectreGadget(true, 100));
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited);
    EXPECT_FALSE(r.violationDetected);
}

TEST(Spectre, CheckTravelsWithTheAccess)
{
    // Without the guard, the access executes and the injected
    // capCheck — part of the same macro-op — flags it. There is no
    // separate check instruction whose outcome the access could run
    // ahead of (the contrast with Spectre-v1 against software
    // checks, Section III).
    SystemConfig cfg;
    System sys(cfg);
    sys.load(spectreGadget(false, 100));
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::OutOfBounds);
    EXPECT_GE(r.capChecksInjected, 1u);
}

TEST(Spectre, EveryTaggedDerefCarriesItsCheck)
{
    // Structural invariant behind the Spectre-v1 argument: under the
    // prediction-driven variant, checks injected == tagged
    // dereferences seen by the tracker (plus zero-idioms) — no
    // tagged access travels unchecked.
    SystemConfig cfg;
    System sys(cfg);
    sys.load(generateSmokeProgram(6, 128));
    RunResult r = sys.run();
    ASSERT_TRUE(r.exited);
    EXPECT_EQ(r.capChecksInjected, sys.tracker().taggedDerefs());
}

} // namespace
} // namespace chex
