/**
 * @file
 * Seeded attack generator, attack registry, and security-report
 * tests: generator determinism (same seed => byte-identical program
 * and bit-identical RunResult), the seed-sweep baseline-validity
 * invariant (every generated exploit's indicator fires under the
 * insecure baseline), detection anchors under prediction-driven
 * CHEx86, registry lookup/uniqueness over all hand-written suite
 * cases, and the attack campaign end to end — spec hashing,
 * sharding + merge, result caching, security-report derivation,
 * and row replay all composing bit-identically.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "attacks/generator.hh"
#include "attacks/registry.hh"
#include "driver/campaign.hh"
#include "driver/merge.hh"
#include "driver/replay.hh"
#include "driver/report.hh"
#include "driver/security_report.hh"
#include "driver/spec_hash.hh"
#include "isa/program.hh"
#include "sim/system.hh"

namespace chex
{
namespace
{

GenFamily
familyOf(const std::string &token)
{
    GenFamily f;
    EXPECT_TRUE(generatorFamilyFromName(token, &f)) << token;
    return f;
}

RunResult
runAttack(const AttackCase &attack, VariantKind kind,
          bool uninit = true)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    cfg.detectUninitializedReads = uninit;
    System sys(cfg);
    sys.load(attack.program);
    RunResult r = sys.run();
    if (attack.indicatorAddr != 0) {
        r.indicatorChecked = true;
        r.indicatorFired =
            sys.memory().read(attack.indicatorAddr, 8) ==
            attack.indicatorExpect;
    }
    return r;
}

TEST(AttackGenerator, SameSeedByteIdenticalProgram)
{
    for (const std::string &token : generatorFamilies()) {
        GenFamily f = familyOf(token);
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            AttackCase a = generateAttack(f, seed);
            AttackCase b = generateAttack(f, seed);
            EXPECT_EQ(a.name, b.name) << token << " seed " << seed;
            EXPECT_EQ(a.expected, b.expected);
            EXPECT_EQ(a.indicatorAddr, b.indicatorAddr);
            EXPECT_EQ(programHash(a.program), programHash(b.program))
                << token << " seed " << seed;
            EXPECT_EQ(a.suite, "Generated");
            EXPECT_FALSE(a.name.empty());
            EXPECT_NE(a.indicatorAddr, 0u);
        }
    }
}

TEST(AttackGenerator, SameSeedBitIdenticalRunResult)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        AttackCase attack = generateAttack(GenFamily::Mix, seed);
        RunResult a =
            runAttack(attack, VariantKind::MicrocodePrediction);
        RunResult b =
            runAttack(generateAttack(GenFamily::Mix, seed),
                      VariantKind::MicrocodePrediction);
        EXPECT_EQ(driver::toJson(a).dump(), driver::toJson(b).dump())
            << "seed " << seed;
    }
}

TEST(AttackGenerator, SeedsSpanDistinctPrograms)
{
    std::set<uint64_t> hashes;
    for (uint64_t seed = 1; seed <= 64; ++seed)
        hashes.insert(programHash(
            generateAttack(GenFamily::Mix, seed).program));
    // Mix draws from five families with several shape/size knobs
    // each; a seed sweep must not collapse onto a few programs.
    EXPECT_GT(hashes.size(), 48u);
}

TEST(AttackGenerator, BaselineValidityInvariant)
{
    // Every generated exploit must be real: under the insecure
    // baseline it runs to completion and its corruption indicator
    // fires.
    for (const std::string &token : generatorFamilies()) {
        GenFamily f = familyOf(token);
        for (uint64_t seed = 1; seed <= 24; ++seed) {
            AttackCase attack = generateAttack(f, seed);
            RunResult r = runAttack(attack, VariantKind::Baseline);
            EXPECT_TRUE(r.exited)
                << token << " seed " << seed << " (" << attack.name
                << ") did not run to completion on the baseline";
            EXPECT_FALSE(r.violationDetected)
                << token << " seed " << seed << " (" << attack.name
                << ")";
            EXPECT_TRUE(r.indicatorFired)
                << token << " seed " << seed << " (" << attack.name
                << ") did not corrupt state on the baseline";
        }
    }
}

TEST(AttackGenerator, UcodePredictionAnchorsExpectedClass)
{
    for (const std::string &token : generatorFamilies()) {
        GenFamily f = familyOf(token);
        for (uint64_t seed = 1; seed <= 12; ++seed) {
            AttackCase attack = generateAttack(f, seed);
            RunResult r = runAttack(
                attack, VariantKind::MicrocodePrediction);
            ASSERT_TRUE(r.violationDetected)
                << token << " seed " << seed << " (" << attack.name
                << ") escaped prediction-driven CHEx86";
            bool anchored = false;
            for (const ViolationRecord &v : r.violations)
                anchored |= v.kind == attack.expected;
            EXPECT_TRUE(anchored)
                << token << " seed " << seed << " (" << attack.name
                << "): expected anchor "
                << violationName(attack.expected) << ", first flag "
                << violationName(r.violations[0].kind);
        }
    }
}

TEST(AttackRegistry, SuiteCaseIdsAreUniqueAndResolvable)
{
    std::set<std::string> ids;
    size_t total = 0;
    for (const AttackSuite &suite : attackSuites()) {
        EXPECT_FALSE(suite.cases.empty()) << suite.name;
        for (const AttackCase &c : suite.cases) {
            ++total;
            const std::string id = attackCaseId(c);
            EXPECT_EQ(id.rfind(suite.name + "/", 0), 0u) << id;
            EXPECT_TRUE(ids.insert(id).second)
                << "duplicate attack ID " << id;

            const AttackCase *found = findSuiteCase(id);
            ASSERT_NE(found, nullptr) << id;
            EXPECT_EQ(found->name, c.name);

            AttackCase resolved;
            ASSERT_TRUE(findAttackByName(id, 123, &resolved)) << id;
            EXPECT_EQ(programHash(resolved.program),
                      programHash(c.program))
                << id;
            EXPECT_EQ(resolved.expected, c.expected) << id;
        }
    }
    EXPECT_EQ(ids.size(), total);
    EXPECT_GT(total, 50u); // ripe sweep + asan + how2heap
}

TEST(AttackRegistry, GeneratedIdsResolveThroughSeed)
{
    for (const std::string &token : generatorFamilies()) {
        AttackCase a;
        std::string err;
        ASSERT_TRUE(findAttackByName("gen/" + token, 7, &a, &err))
            << err;
        EXPECT_EQ(a.suite, "Generated");
        EXPECT_EQ(programHash(a.program),
                  programHash(
                      generateAttack(familyOf(token), 7).program));
    }
    AttackCase out;
    std::string err;
    EXPECT_FALSE(findAttackByName("gen/bogus", 1, &out, &err));
    EXPECT_NE(err.find("gen/bogus"), std::string::npos);
    EXPECT_FALSE(findAttackByName("nosuite/nocase", 1, &out, &err));
    EXPECT_EQ(findSuiteCase("gen/mix"), nullptr);
}

TEST(AttackSpecHash, AttackIdFoldsIntoHash)
{
    driver::JobSpec plain;
    plain.profile = attackProfile();

    driver::JobSpec gen_mix = plain;
    gen_mix.attack = "gen/mix";
    driver::JobSpec gen_uaf = plain;
    gen_uaf.attack = "gen/uaf";

    // Same seed: the attack ID alone must separate the cache
    // identities — and an empty ID must not perturb the historical
    // workload hash stream (guarded fold).
    EXPECT_NE(driver::specHash(plain, 42),
              driver::specHash(gen_mix, 42));
    EXPECT_NE(driver::specHash(gen_mix, 42),
              driver::specHash(gen_uaf, 42));
    EXPECT_EQ(driver::specHash(gen_mix, 42),
              driver::specHash(gen_mix, 42));
    EXPECT_NE(driver::specHash(gen_mix, 42),
              driver::specHash(gen_mix, 43));
}

std::vector<driver::JobSpec>
attackMatrix(unsigned instances, uint64_t campaign_seed)
{
    std::vector<driver::JobSpec> jobs;
    for (unsigned i = 0; i < instances; ++i) {
        const uint64_t seed = driver::jobSeed(campaign_seed, i);
        for (VariantKind kind : {VariantKind::Baseline,
                                 VariantKind::MicrocodePrediction}) {
            driver::JobSpec spec;
            spec.label = "gen/mix#" + std::to_string(i) + "/" +
                         variantName(kind);
            spec.profile = attackProfile();
            spec.config.variant.kind = kind;
            spec.config.detectUninitializedReads = true;
            spec.workloadSeed = seed;
            spec.attack = "gen/mix";
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

/** Per-job identity + result view, timing-free. */
std::map<std::string, std::string>
resultView(const driver::CampaignReport &report)
{
    std::map<std::string, std::string> view;
    for (const driver::JobResult &jr : report.jobs) {
        EXPECT_FALSE(jr.failed) << jr.label << ": " << jr.error;
        view[jr.label] = jr.attack + "|" +
                         driver::specHashHex(jr.specHash) + "|" +
                         std::to_string(jr.seed) + "|" +
                         driver::toJson(jr.run).dump();
    }
    return view;
}

TEST(AttackCampaign, EndToEndShardCacheAndSecurityReport)
{
    const unsigned kInstances = 6;
    std::vector<driver::JobSpec> jobs = attackMatrix(kInstances, 9);

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 9;
    driver::CampaignReport plain = driver::runCampaign(jobs, opts);
    EXPECT_EQ(plain.jobsFailed, 0u);
    EXPECT_EQ(plain.jobsRun, jobs.size());

    // Security view of the plain run: every baseline row validates
    // its exploit, every enforcement row detects it.
    driver::SecurityReport sec;
    std::string err;
    ASSERT_TRUE(driver::buildSecurityReport(plain, &sec, &err))
        << err;
    EXPECT_EQ(sec.attackJobs, jobs.size());
    EXPECT_EQ(sec.failedJobs, 0u);
    EXPECT_EQ(sec.baselineChecked, kInstances);
    EXPECT_EQ(sec.baselineValid, kInstances);
    ASSERT_EQ(sec.variants.size(), 1u);
    EXPECT_EQ(sec.variants[0].variant,
              variantName(VariantKind::MicrocodePrediction));
    EXPECT_EQ(sec.variants[0].attacks, kInstances);
    EXPECT_EQ(sec.variants[0].detected, kInstances);
    EXPECT_EQ(sec.variants[0].anchorMatches, kInstances);
    EXPECT_TRUE(sec.escaped.empty());

    // Sharded run + merge: bit-identical job results and security
    // report vs the unsharded run.
    driver::CampaignOptions shard0 = opts;
    shard0.shardIndex = 0;
    shard0.shardCount = 2;
    driver::CampaignOptions shard1 = opts;
    shard1.shardIndex = 1;
    shard1.shardCount = 2;
    std::vector<driver::CampaignReport> shards;
    shards.push_back(driver::runCampaign(jobs, shard0));
    shards.push_back(driver::runCampaign(jobs, shard1));

    // A single shard must refuse security derivation: its rates
    // would cover only a slice of the campaign.
    driver::SecurityReport partial;
    EXPECT_FALSE(
        driver::buildSecurityReport(shards[0], &partial, &err));
    EXPECT_NE(err.find("merge"), std::string::npos);

    driver::CampaignReport merged;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;
    EXPECT_EQ(resultView(merged), resultView(plain));

    driver::SecurityReport sec_merged;
    ASSERT_TRUE(
        driver::buildSecurityReport(merged, &sec_merged, &err))
        << err;
    EXPECT_EQ(driver::toJson(sec_merged).dump(),
              driver::toJson(sec).dump());

    // Cached re-run: nothing simulates, everything matches.
    driver::CampaignOptions cached_opts = opts;
    cached_opts.cacheReports.push_back(plain);
    driver::CampaignReport cached =
        driver::runCampaign(jobs, cached_opts);
    EXPECT_EQ(cached.jobsCached, jobs.size());
    EXPECT_EQ(resultView(cached), resultView(plain));
    driver::SecurityReport sec_cached;
    ASSERT_TRUE(
        driver::buildSecurityReport(cached, &sec_cached, &err))
        << err;
    EXPECT_EQ(driver::toJson(sec_cached).dump(),
              driver::toJson(sec).dump());
}

TEST(AttackCampaign, RowReplaysToSameOutcome)
{
    std::vector<driver::JobSpec> jobs = attackMatrix(3, 11);
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 11;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFailed, 0u);

    for (size_t index : {size_t(1), size_t(4)}) {
        driver::ReplayPlan plan;
        std::string err;
        // --scale 50 on the original campaign would have been a
        // no-op on the attack profile, so any divisor must
        // reconstruct the recorded hash.
        ASSERT_TRUE(driver::planReplay(report, index, 50, nullptr,
                                       &plan, &err))
            << err;
        EXPECT_EQ(plan.spec.attack, "gen/mix");
        // The campaign ran with uninitialized-read detection on; the
        // planner recovers that from the recorded spec hash.
        EXPECT_TRUE(plan.spec.config.detectUninitializedReads);

        driver::CampaignOptions single;
        single.workers = 1;
        single.seed = opts.seed;
        driver::CampaignReport rerun =
            driver::runCampaign({plan.spec}, single);
        ASSERT_EQ(rerun.jobs.size(), 1u);
        std::string detail;
        EXPECT_TRUE(driver::outcomeReproduced(
            report.jobs[index], rerun.jobs[0], &detail))
            << detail;
        EXPECT_EQ(driver::toJson(rerun.jobs[0].run).dump(),
                  driver::toJson(report.jobs[index].run).dump());
    }
}

} // namespace
} // namespace chex
