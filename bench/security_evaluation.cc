/**
 * @file
 * Section VII-A: the security evaluation. Runs all three exploit
 * suites — the RIPE-style dimension sweep, the ASan-style unit
 * violations, and the 18 How2Heap-style heap-metadata exploits —
 * under prediction-driven CHEx86 and reports, per suite, how many
 * exploits were thwarted and the breakdown by anchor violation
 * class; also verifies against the insecure baseline that the
 * exploits are real (their corruption indicator fires).
 *
 * The cases come from the central attack registry (one stable ID
 * per case) and run as attack jobs on the campaign driver's worker
 * pool, so CHEX_BENCH_JOBS sets its width like any other figure
 * harness. (Seeded generated attacks, caching and sharding are the
 * `chex-campaign attack` subcommand's job.)
 */

#include <iostream>
#include <map>

#include "attacks/registry.hh"
#include "base/table.hh"
#include "common.hh"

using namespace chex;

namespace
{

struct SuiteSummary
{
    unsigned total = 0;
    unsigned detected = 0;
    unsigned expectedAnchor = 0;
    unsigned baselineSucceeded = 0;
    unsigned baselineChecked = 0;
    std::map<Violation, unsigned> byClass;
};

} // namespace

int
main()
{
    std::printf("Security Evaluation (Section VII-A): CHEx86 "
                "prediction-driven variant vs the exploit suites\n\n");

    const uint64_t seed = 1;

    // One detection job per case, plus one baseline-validation job
    // for every case that carries a corruption indicator. Flat across
    // all suites so the worker pool stays full.
    std::vector<driver::JobSpec> jobs;
    for (const AttackSuite &suite : attackSuites()) {
        for (const AttackCase &attack : suite.cases) {
            std::string id = attackCaseId(attack);
            driver::JobSpec det;
            det.label = id + "/" +
                        variantName(VariantKind::MicrocodePrediction);
            det.attack = id;
            det.profile = attackProfile();
            det.config.variant.kind =
                VariantKind::MicrocodePrediction;
            det.workloadSeed = seed;
            jobs.push_back(std::move(det));

            if (attack.indicatorAddr != 0) {
                driver::JobSpec base;
                base.label = id + "/" +
                             variantName(VariantKind::Baseline);
                base.attack = id;
                base.profile = attackProfile();
                base.config.variant.kind = VariantKind::Baseline;
                base.workloadSeed = seed;
                jobs.push_back(std::move(base));
            }
        }
    }

    std::vector<RunResult> results =
        bench::runCampaignJobs(jobs, seed);

    // Walk the results in the same suite/case order the jobs were
    // enumerated in.
    std::map<std::string, SuiteSummary> summaries;
    size_t next = 0;
    for (const AttackSuite &suite : attackSuites()) {
        SuiteSummary &s = summaries[suite.name];
        for (const AttackCase &attack : suite.cases) {
            ++s.total;
            const RunResult &r = results[next++];
            if (r.violationDetected) {
                ++s.detected;
                ++s.byClass[r.violations[0].kind];
                // Anchor accounting over *all* recorded violations:
                // an incidental earlier violation must not
                // misclassify a case whose expected anchor fires
                // second.
                for (const ViolationRecord &v : r.violations) {
                    if (v.kind == attack.expected) {
                        ++s.expectedAnchor;
                        break;
                    }
                }
            }

            if (attack.indicatorAddr != 0) {
                const RunResult &b = results[next++];
                if (b.indicatorChecked) {
                    ++s.baselineChecked;
                    if (b.indicatorFired)
                        ++s.baselineSucceeded;
                }
            }
        }
    }

    Table t({"suite", "exploits", "thwarted", "expected anchor",
             "work on baseline", "violation classes"});
    bool all_thwarted = true;
    for (const AttackSuite &suite : attackSuites()) {
        const SuiteSummary &s = summaries[suite.name];
        all_thwarted &= s.detected == s.total;
        std::string breakdown;
        for (const auto &[v, n] : s.byClass) {
            if (!breakdown.empty())
                breakdown += ", ";
            breakdown += std::to_string(n) + " " + violationName(v);
        }
        t.addRow({suite.title, std::to_string(s.total),
                  std::to_string(s.detected),
                  std::to_string(s.expectedAnchor),
                  std::to_string(s.baselineSucceeded) + "/" +
                      std::to_string(s.baselineChecked),
                  breakdown});
    }
    t.print(std::cout);

    std::printf("\n%s\n",
                all_thwarted
                    ? "All exploits thwarted, matching the paper: "
                      "regardless of allocator evasion, the anchor "
                      "points remain OOB, UAF, double free, invalid "
                      "free, and oversize allocation."
                    : "WARNING: some exploits were NOT detected!");
    return all_thwarted ? 0 : 1;
}
