#include "replay.hh"

#include "base/logging.hh"
#include "driver/spec_hash.hh"

namespace chex
{
namespace driver
{

namespace
{

bool
failPlan(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

} // anonymous namespace

bool
selectReplayRow(const CampaignReport &report,
                std::optional<size_t> index, size_t *out,
                std::string *err)
{
    if (index) {
        if (*index >= report.jobs.size()) {
            return failPlan(
                err, csprintf("job index %zu out of range (report "
                              "has %zu jobs)",
                              *index, report.jobs.size()));
        }
        *out = *index;
        return true;
    }
    for (const JobResult &jr : report.jobs) {
        if (jr.failed) {
            *out = jr.index;
            return true;
        }
    }
    return failPlan(err, "report has no failed jobs; pass an "
                         "explicit --index to replay a passing one");
}

bool
planReplay(const CampaignReport &report, size_t index,
           uint64_t scale_divisor, const snapshot::Bundle *bundle,
           ReplayPlan *out, std::string *err)
{
    if (index >= report.jobs.size()) {
        return failPlan(err,
                        csprintf("job index %zu out of range (report "
                                 "has %zu jobs)",
                                 index, report.jobs.size()));
    }
    const JobResult &row = report.jobs[index];
    if (row.skipped) {
        return failPlan(
            err, csprintf("job %zu belongs to another shard of this "
                          "report and was never run here",
                          index));
    }
    if (row.specHash == 0) {
        return failPlan(
            err, csprintf("job %zu has no spec hash (custom job "
                          "body); it cannot be reconstructed from "
                          "the report",
                          index));
    }

    const BenchmarkProfile *profile =
        findProfileByName(row.profileName);
    if (!profile) {
        return failPlan(err,
                        csprintf("job %zu uses unknown profile '%s'",
                                 index, row.profileName.c_str()));
    }
    VariantKind kind;
    if (!variantFromName(row.variant, &kind)) {
        return failPlan(err,
                        csprintf("job %zu uses unknown variant '%s'",
                                 index, row.variant.c_str()));
    }
    if (row.fromSnapshot && !bundle) {
        return failPlan(
            err, csprintf("job %zu ran from a snapshot; pass the "
                          "bundle it fanned out from "
                          "(--from-snapshot)",
                          index));
    }

    ReplayPlan plan;
    plan.index = index;
    plan.spec.label = row.label;
    plan.spec.profile =
        profile->scaledBy(std::max<uint64_t>(1, scale_divisor));
    plan.spec.config.variant.kind = kind;
    plan.spec.workloadSeed = row.seed;
    plan.spec.repetition = row.repetition;
    // Attack rows rebuild the exploit instead of the workload; the
    // generator seed is the row seed, so the reconstruction is
    // exact (attackProfile() sits at the scaledBy floor, making any
    // --scale divisor a no-op on the hashed spec).
    plan.spec.attack = row.attack;
    plan.fromSnapshot = row.fromSnapshot;

    // Verify before anything re-runs: the reconstructed spec must
    // hash to exactly what the campaign recorded, with the
    // snapshot's state hash folded in for from-snapshot rows.
    bool in_bundle = false;
    for (bool uninit : {false, true}) {
        plan.spec.config.detectUninitializedReads = uninit;
        uint64_t expect = specHash(plan.spec, row.seed);
        if (row.fromSnapshot) {
            const snapshot::MachineEntry *entry =
                bundle->findBySpecKey(expect);
            if (!entry)
                continue;
            in_bundle = true;
            expect = foldSnapshotHash(expect, entry->stateHash);
        }
        if (expect == row.specHash) {
            *out = std::move(plan);
            return true;
        }
    }
    if (row.fromSnapshot && !in_bundle) {
        return failPlan(
            err, csprintf("job %zu: the given bundle has no "
                          "entry for this job's spec (wrong "
                          "bundle, or config/scale drift)",
                          index));
    }
    return failPlan(
        err, csprintf("job %zu: reconstructed spec hash does not "
                      "match recorded %s with uninitialized-read "
                      "detection off or on — --scale or bundle "
                      "differ from the original campaign",
                      index, specHashHex(row.specHash).c_str()));
}

bool
outcomeReproduced(const JobResult &recorded, const JobResult &replayed,
                  std::string *detail)
{
    auto describe = [](const JobResult &jr) {
        if (!jr.failed)
            return std::string("ok");
        std::string s = failureCauseName(jr.cause);
        if (!jr.error.empty())
            s += ": " + jr.error;
        return s;
    };
    bool same = recorded.failed == replayed.failed &&
                (!recorded.failed || recorded.cause == replayed.cause);
    if (detail) {
        *detail = csprintf(
            "recorded [%s] vs replayed [%s]%s",
            describe(recorded).c_str(), describe(replayed).c_str(),
            same ? "" : " — OUTCOME DIFFERS");
    }
    return same;
}

} // namespace driver
} // namespace chex
