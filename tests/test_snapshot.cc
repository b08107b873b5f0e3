/**
 * @file
 * Checkpoint/restore subsystem tests: snapshot round-trips, the
 * restore-then-run bit-identity guarantee across variants, and the
 * strict rejection of mismatched or corrupt snapshots.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>

#include "sim/system.hh"
#include "snapshot/codec.hh"
#include "snapshot/snapshot.hh"
#include "snapshot_docs.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace chex;

namespace
{

constexpr uint64_t TestSeed = 12345;
constexpr uint64_t Warmup = 2000;

BenchmarkProfile
testProfile()
{
    // Allocation-heavy and pointer-intensive, so the warm-up state
    // exercises the capability table, tracker, and alias machinery.
    return profileByName("xalancbmk").scaledBy(40);
}

SystemConfig
configFor(VariantKind kind)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    return cfg;
}

/** Fields of RunResult that must survive a pause bit-identically. */
void
expectIdenticalResults(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.exited, b.exited);
    EXPECT_EQ(a.violationDetected, b.violationDetected);
    EXPECT_EQ(a.hijackedControlFlow, b.hijackedControlFlow);
    EXPECT_EQ(a.hitMacroCap, b.hitMacroCap);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macroOps, b.macroOps);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.squashCyclesBranch, b.squashCyclesBranch);
    EXPECT_EQ(a.squashCyclesAlias, b.squashCyclesAlias);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.capChecksInjected, b.capChecksInjected);
    EXPECT_EQ(a.zeroIdiomChecks, b.zeroIdiomChecks);
    EXPECT_EQ(a.injectedUops, b.injectedUops);
    EXPECT_EQ(a.capCacheMissRate, b.capCacheMissRate);
    EXPECT_EQ(a.capCacheAccesses, b.capCacheAccesses);
    EXPECT_EQ(a.aliasCacheMissRate, b.aliasCacheMissRate);
    EXPECT_EQ(a.aliasCacheAccesses, b.aliasCacheAccesses);
    EXPECT_EQ(a.aliasPredAccuracy, b.aliasPredAccuracy);
    EXPECT_EQ(a.p0anFlushes, b.p0anFlushes);
    EXPECT_EQ(a.pmanForwards, b.pmanForwards);
    EXPECT_EQ(a.pna0ZeroIdioms, b.pna0ZeroIdioms);
    EXPECT_EQ(a.pointerSpills, b.pointerSpills);
    EXPECT_EQ(a.pointerReloads, b.pointerReloads);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.residentBytes, b.residentBytes);
    EXPECT_EQ(a.shadowBytes, b.shadowBytes);
    EXPECT_EQ(a.footprintBytes, b.footprintBytes);
    EXPECT_EQ(a.totalAllocations, b.totalAllocations);
    EXPECT_EQ(a.maxLiveAllocations, b.maxLiveAllocations);
    EXPECT_EQ(a.avgAllocationsInUse, b.avgAllocationsInUse);
}

} // anonymous namespace

TEST(Snapshot, PauseResumeMatchesUninterrupted)
{
    BenchmarkProfile p = testProfile();
    for (VariantKind kind :
         {VariantKind::Baseline, VariantKind::MicrocodePrediction,
          VariantKind::MicrocodeAlwaysOn, VariantKind::Asan}) {
        SystemConfig cfg = configFor(kind);

        System plain(cfg);
        plain.load(generateWorkload(p, TestSeed));
        RunResult a = plain.run();

        System paused(cfg);
        paused.load(generateWorkload(p, TestSeed));
        ASSERT_TRUE(paused.runMacros(Warmup)) << variantName(kind);
        EXPECT_TRUE(paused.paused());
        RunResult b = paused.run();

        SCOPED_TRACE(variantName(kind));
        expectIdenticalResults(a, b);
    }
}

TEST(Snapshot, RestoreRunsBitIdentically)
{
    BenchmarkProfile p = testProfile();
    for (VariantKind kind :
         {VariantKind::MicrocodePrediction, VariantKind::HardwareOnly,
          VariantKind::Baseline}) {
        SCOPED_TRACE(variantName(kind));
        SystemConfig cfg = configFor(kind);

        System plain(cfg);
        plain.load(generateWorkload(p, TestSeed));
        RunResult a = plain.run();

        snapshot::MachineEntry entry;
        std::string err;
        ASSERT_TRUE(snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1,
                                         &entry, &err))
            << err;
        EXPECT_EQ(entry.warmupMacros, Warmup);
        EXPECT_NE(entry.stateHash, 0u);

        System restored(cfg);
        ASSERT_TRUE(snapshot::restoreEntry(entry, p, &restored, &err))
            << err;
        ASSERT_TRUE(restored.paused());
        RunResult b = restored.run();

        expectIdenticalResults(a, b);
    }
}

TEST(Snapshot, SaveRestoreSaveIsStable)
{
    // Restoring a snapshot and snapshotting again must reproduce the
    // exact serialized document: proof that no state is dropped or
    // reordered on the way through.
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);

    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;

    System restored(cfg);
    ASSERT_TRUE(snapshot::restoreEntry(entry, p, &restored, &err))
        << err;
    json::Value again = restored.saveSnapshot(&err);
    ASSERT_FALSE(again.isNull()) << err;
    EXPECT_EQ(entry.state.dump(0), again.dump(0));
    EXPECT_EQ(entry.stateHash, snapshot::jsonStateHash(again));
}

TEST(Snapshot, BytesArePinned)
{
    // The chex-snapshot-v2 bytes of a paused ucode-pred mcf run, by
    // digest. The run pauses while a free's invalidation has left a
    // hole among the capability cache's ways, so which slots are
    // valid, not just which keys are resident, is in the pin.
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);
    System sys(cfg);
    sys.load(generateWorkload(profileByName("mcf").scaledBy(4), TestSeed));
    ASSERT_TRUE(sys.runMacros(11800));
    std::string err;
    json::Value doc = sys.saveSnapshot(&err);
    ASSERT_FALSE(doc.isNull()) << err;
    const json::Value &capCache =
        doc.at("machine").at("capCache").at("cache");
    ASSERT_GT(capCache.at("invalidations").asUint64(), 0u);
    ASSERT_LT(capCache.at("entries").size(), capCache.at("ways").asUint64());
    EXPECT_EQ(snapshot::stateHashHex(snapshot::jsonStateHash(doc)),
              "6335418683052d99");
}

TEST(Snapshot, BundleFileRoundTrip)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);

    snapshot::Bundle bundle;
    bundle.campaignSeed = 7;
    bundle.warmupMacros = Warmup;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(snapshot::buildEntry(p, cfg, TestSeed, Warmup, 0xabcd,
                                     &entry, &err))
        << err;
    bundle.entries.push_back(std::move(entry));

    std::string path = testing::TempDir() + "/chex_snapshot_rt.json";
    ASSERT_TRUE(snapshot::writeBundleFile(path, bundle, &err)) << err;

    snapshot::Bundle loaded;
    ASSERT_TRUE(snapshot::loadBundleFile(path, &loaded, &err)) << err;
    ASSERT_EQ(loaded.entries.size(), 1u);
    EXPECT_EQ(loaded.campaignSeed, 7u);
    EXPECT_EQ(loaded.warmupMacros, Warmup);
    const snapshot::MachineEntry &e = loaded.entries[0];
    EXPECT_EQ(e.profileName, p.name);
    EXPECT_EQ(e.variant,
              std::string(variantName(VariantKind::MicrocodePrediction)));
    EXPECT_EQ(e.seed, TestSeed);
    EXPECT_EQ(e.specKey, 0xabcdu);
    EXPECT_EQ(e.stateHash, bundle.entries[0].stateHash);
    EXPECT_EQ(e.state.dump(0), bundle.entries[0].state.dump(0));
    EXPECT_NE(loaded.findBySpecKey(0xabcd), nullptr);
    EXPECT_EQ(loaded.findBySpecKey(0x9999), nullptr);
    EXPECT_EQ(loaded.findBySpecKey(0), nullptr);
    std::remove(path.c_str());
}

TEST(Snapshot, CorruptBundleRejected)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::Baseline);

    snapshot::Bundle bundle;
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;
    bundle.entries.push_back(std::move(entry));

    json::Value doc = snapshot::toJson(bundle);

    // Wrong bundle format tag.
    {
        json::Value bad = doc;
        bad.set("format", "chex-snapshot-bundle-v999");
        snapshot::Bundle out;
        EXPECT_FALSE(snapshot::fromJson(bad, &out, &err));
        EXPECT_NE(err.find("format"), std::string::npos) << err;
    }

    // Tampered state (hash mismatch): flip the saved macro count.
    {
        json::Value bad = doc;
        json::Value state = bundle.entries[0].state;
        json::Value machine = state.at("machine");
        machine.set("macroCount", uint64_t{999999});
        state.set("machine", std::move(machine));
        json::Value jentries = json::Value::array();
        json::Value je = bad.at("entries").at(size_t{0});
        je.set("state", std::move(state));
        jentries.push(std::move(je));
        bad.set("entries", std::move(jentries));
        snapshot::Bundle out;
        EXPECT_FALSE(snapshot::fromJson(bad, &out, &err));
        EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
    }
}

TEST(Snapshot, MismatchedRestoreRejected)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);

    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;

    // Different config (variant changed) -> configHash mismatch.
    {
        SystemConfig other = configFor(VariantKind::MicrocodeAlwaysOn);
        System sys(other);
        EXPECT_FALSE(snapshot::restoreEntry(entry, p, &sys, &err));
        EXPECT_NE(err.find("configuration mismatch"),
                  std::string::npos)
            << err;
    }

    // Different config (cache geometry changed) -> rejected too.
    {
        SystemConfig other = cfg;
        other.capCacheEntries = 16;
        System sys(other);
        EXPECT_FALSE(snapshot::restoreEntry(entry, p, &sys, &err));
        EXPECT_NE(err.find("configuration mismatch"),
                  std::string::npos)
            << err;
    }

    // Different program (other seed) -> programHash mismatch.
    {
        System sys(cfg);
        sys.load(generateWorkload(p, TestSeed + 1));
        EXPECT_FALSE(sys.restoreSnapshot(entry.state, &err));
        EXPECT_NE(err.find("program mismatch"), std::string::npos)
            << err;
    }

    // Wrong snapshot format tag.
    {
        json::Value bad = entry.state;
        bad.set("format", "chex-snapshot-v999");
        System sys(cfg);
        sys.load(generateWorkload(p, TestSeed));
        EXPECT_FALSE(sys.restoreSnapshot(bad, &err));
        EXPECT_NE(err.find("format"), std::string::npos) << err;
    }

    // No program loaded at all.
    {
        System sys(cfg);
        EXPECT_FALSE(sys.restoreSnapshot(entry.state, &err));
        EXPECT_NE(err.find("no program"), std::string::npos) << err;
    }
}

TEST(Snapshot, CheckerConfigNotSnapshottable)
{
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);
    cfg.enableChecker = true;
    cfg.useTableIRules = false;
    BenchmarkProfile p = testProfile();
    snapshot::MachineEntry entry;
    std::string err;
    EXPECT_FALSE(snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1,
                                      &entry, &err));
    EXPECT_NE(err.find("checker"), std::string::npos) << err;
}

TEST(Snapshot, WarmupPastEndOfRunRejected)
{
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::Baseline);
    snapshot::MachineEntry entry;
    std::string err;
    EXPECT_FALSE(snapshot::buildEntry(p, cfg, TestSeed,
                                      uint64_t{1} << 62, 1, &entry,
                                      &err));
    EXPECT_NE(err.find("terminated before"), std::string::npos) << err;
}

namespace
{

using snapdocs::Path;

/** Restore @p doc into @p sys; the error, or "" when it restored. */
std::string
restoreError(System &sys, const json::Value &doc)
{
    std::string err;
    return sys.restoreSnapshot(doc, &err) ? std::string() : err;
}

/** @p doc with the node at @p path replaced by @p value. */
json::Value
with(const json::Value &doc, const Path &path, json::Value value)
{
    return snapdocs::edited(doc, path, [&](const json::Value &) {
        return std::optional<json::Value>(value);
    });
}

/** @p doc with the node at @p path removed. */
json::Value
without(const json::Value &doc, const Path &path)
{
    return snapdocs::edited(doc, path, [](const json::Value &) {
        return std::optional<json::Value>();
    });
}

/** @p doc with element @p i of the array at @p path repeated. */
json::Value
repeating(const json::Value &doc, const Path &path, size_t i = 0)
{
    return snapdocs::edited(doc, path, [i](const json::Value &array) {
        json::Value out = json::Value::array();
        for (size_t k = 0; k < array.size(); ++k) {
            out.push(array.at(k));
            if (k == i)
                out.push(array.at(k));
        }
        return std::optional<json::Value>(out);
    });
}

} // anonymous namespace

TEST(Snapshot, MalformedArrayElementIsRejectedNotAborted)
{
    // Regression: a bundle entry whose core.regReady[28] was "x" (with
    // its stateHash re-signed) passed the bundle check and then
    // aborted restore on a kind assertion inside the JSON layer,
    // killing the campaign (or its isolated worker) with no report.
    BenchmarkProfile p = testProfile();
    SystemConfig cfg = configFor(VariantKind::MicrocodePrediction);
    snapshot::MachineEntry entry;
    std::string err;
    ASSERT_TRUE(
        snapshot::buildEntry(p, cfg, TestSeed, Warmup, 1, &entry, &err))
        << err;
    entry.state = with(entry.state, {"machine", "core", "regReady", "28"},
                       json::Value("x"));
    entry.stateHash = snapshot::jsonStateHash(entry.state);

    snapshot::Bundle bundle;
    bundle.entries.push_back(entry);
    snapshot::Bundle loaded;
    ASSERT_TRUE(snapshot::fromJson(snapshot::toJson(bundle), &loaded, &err))
        << err;

    System sys(cfg);
    EXPECT_FALSE(snapshot::restoreEntry(loaded.entries[0], p, &sys, &err));
    EXPECT_EQ(err, "snapshot: machine.core.regReady[28] is not an "
                   "unsigned integer in range");
}

TEST(Snapshot, RestoreRejectsWhatItUsedToDefault)
{
    // Each of these restored "ok" through the old lenient getters:
    // a wrong-kind or out-of-range number read as a default or was
    // truncated, an unknown enum value was cast, a missing page
    // number read as page 0, and a repeated page, cache slot, PID or
    // alias word silently overwrote the one before it.
    json::Value doc = snapdocs::tinySnapshot(VariantKind::MicrocodePrediction);
    ASSERT_FALSE(doc.isNull());
    ASSERT_GE(doc.at("machine").at("mem").size(), 2u);
    ASSERT_GE(doc.at("machine").at("aliases").size(), 2u);
    ASSERT_GE(doc.at("machine").at("capTable").at("caps").size(), 2u);
    ASSERT_GE(
        doc.at("machine").at("hier").at("l1d").at("entries").size(), 2u);
    const Path fetch{"machine", "core", "fetchCycle"};
    const Path aliases{"machine", "aliases"};
    json::Value pending = json::Value::array();
    pending.push(json::Value::object()
                     .set("kind", uint64_t{77})
                     .set("genPid", uint64_t{0})
                     .set("freePid", uint64_t{0}));
    json::Value swapped = json::Value::array();
    swapped.push(doc.at("machine").at("aliases").at(1));
    swapped.push(doc.at("machine").at("aliases").at(0));

    struct Case
    {
        json::Value doc;
        std::string path; // of the member the error must name
    };
    const Case cases[] = {
        {with(doc, fetch, "oops"), "machine.core.fetchCycle"},
        {with(doc, fetch, -5), "machine.core.fetchCycle"},
        {with(doc, fetch, 1.5e30), "machine.core.fetchCycle"},
        {with(doc, fetch, 1.5), "machine.core.fetchCycle"},
        {with(doc, {"machine", "macroCount"}, "oops"), "machine.macroCount"},
        {with(doc, {"machine", "pending"}, pending),
         "machine.pending[0].kind"},
        {without(doc, {"machine", "mem", "0", "page"}),
         "machine.mem[0].page"},
        {repeating(doc, {"machine", "mem"}), "machine.mem[1]"},
        {repeating(doc, {"machine", "hier", "l1d", "entries"}),
         "machine.hier.l1d.entries[1].slot"},
        {repeating(doc, {"machine", "capTable", "caps"}),
         "machine.capTable.caps[1]"},
        {repeating(doc, aliases), "machine.aliases[1]"},
        {with(doc, aliases, swapped), "machine.aliases[1]"},
        {with(doc, {"machine", "aliases", "0", "1"}, uint64_t{0}),
         "machine.aliases[0][1]"},
        {with(doc, {"machine", "capTable", "caps", "0", "pid"},
              uint64_t{1} << 32),
         "machine.capTable.caps[0].pid"},
    };
    auto sys = snapdocs::tinySystem(VariantKind::MicrocodePrediction);
    ASSERT_EQ(restoreError(*sys, doc), "");
    for (const Case &c : cases) {
        SCOPED_TRACE(c.path);
        std::string err = restoreError(*sys, c.doc);
        EXPECT_EQ(err.rfind("snapshot: " + c.path + " ", 0), 0u) << err;
    }
}

TEST(Snapshot, EveryMemberIsRequiredAndTyped)
{
    // Walk every object member, and element 0 of every array, of a
    // saved document: removing an object member, or replacing any
    // of them with a value of another kind, must be rejected with an
    // error naming that member. (Removing an array element can leave
    // a valid, shorter list; the fuzz suite covers those.)
    for (VariantKind kind :
         {VariantKind::Baseline, VariantKind::MicrocodePrediction}) {
        SCOPED_TRACE(variantName(kind));
        json::Value doc = snapdocs::tinySnapshot(kind);
        ASSERT_FALSE(doc.isNull());
        std::vector<Path> paths;
        std::function<void(const json::Value &, Path &)> walk =
            [&](const json::Value &v, Path &path) {
                if (v.isObject()) {
                    for (const auto &[key, member] : v.members()) {
                        path.push_back(key);
                        paths.push_back(path);
                        walk(member, path);
                        path.pop_back();
                    }
                } else if (v.isArray() && v.size() > 0) {
                    path.push_back("0");
                    paths.push_back(path);
                    walk(v.at(size_t{0}), path);
                    path.pop_back();
                }
            };
        Path root;
        walk(doc, root);
        ASSERT_GT(paths.size(), 250u);

        auto sys = snapdocs::tinySystem(kind);
        size_t checked = 0;
        for (const Path &path : paths) {
            std::string name = snapdocs::pathName(doc, path);
            SCOPED_TRACE(name);
            const json::Value &node = snapdocs::nodeAt(doc, path);
            std::string err = restoreError(
                *sys, with(doc, path, snapdocs::otherKind(node)));
            EXPECT_EQ(err.rfind("snapshot: " + name + " ", 0), 0u) << err;
            if (!snapdocs::nodeAt(doc, Path(path.begin(), path.end() - 1))
                     .isObject())
                continue;
            err = restoreError(*sys, without(doc, path));
            EXPECT_EQ(err, "snapshot: " + name + " is missing");
            ++checked;
        }
        EXPECT_GT(checked, 150u);
        // The system still restores the untouched document.
        EXPECT_EQ(restoreError(*sys, doc), "");
    }
}
