/**
 * @file
 * Ablation: context-sensitive enforcement (Sections I and V-C). The
 * microcode variant's defining flexibility is surgical, on-demand
 * protection: allocations are always tracked, but capCheck
 * micro-ops are injected only while executing security-critical
 * code. This sweep protects a growing fraction of each program's
 * text section and reports the check count and slowdown, showing
 * overhead scaling down to near-native as the protected region
 * shrinks.
 *
 * The per-profile (baseline + five protected fractions) cells run as
 * one job list on the campaign driver's worker pool, so both bench
 * env knobs, CHEX_BENCH_SCALE and CHEX_BENCH_JOBS, apply (see
 * common.hh). Workload generation is deterministic in (profile,
 * seed), so the program generated here to size the critical regions
 * is bit-identical to the one each driver job regenerates.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "base/table.hh"
#include "common.hh"

using namespace chex;
using namespace chex::bench;

int
main()
{
    std::printf("Ablation: context-sensitive (surgical) "
                "enforcement\n\n");

    const double fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    const size_t cells = 1 + std::size(fractions);
    const char *names[] = {"mcf", "xalancbmk", "perlbench"};

    std::vector<driver::JobSpec> jobs;
    for (const char *name : names) {
        BenchmarkProfile scaled =
            profileByName(name).scaledBy(scale());
        Program prog = generateWorkload(scaled, 1);
        uint64_t text_bytes = prog.numInsts() * InstSlotBytes;

        driver::JobSpec base;
        base.label = std::string(name) + "/baseline";
        base.profile = scaled;
        base.config.variant.kind = VariantKind::Baseline;
        base.workloadSeed = 1;
        jobs.push_back(std::move(base));

        for (double f : fractions) {
            driver::JobSpec spec;
            spec.label = std::string(name) + "/protected-" +
                         std::to_string(static_cast<int>(f * 100));
            spec.profile = scaled;
            spec.config.variant.kind =
                VariantKind::MicrocodePrediction;
            if (f < 1.0) {
                spec.config.variant.criticalRegions = {
                    {prog.codeBase,
                     prog.codeBase +
                         static_cast<uint64_t>(f * text_bytes)}};
            }
            spec.workloadSeed = 1;
            jobs.push_back(std::move(spec));
        }
    }

    std::vector<RunResult> results = runCampaignJobs(std::move(jobs), 1);

    Table t({"benchmark", "protected", "slowdown", "checks",
             "uop expansion"});
    for (size_t pi = 0; pi < std::size(names); ++pi) {
        const RunResult &base = results[pi * cells];
        for (size_t fi = 0; fi < std::size(fractions); ++fi) {
            const RunResult &r = results[pi * cells + 1 + fi];
            t.addRow({names[pi], Table::pct(fractions[fi], 0),
                      Table::pct(static_cast<double>(r.cycles) /
                                         base.cycles -
                                     1,
                                 1),
                      std::to_string(r.capChecksInjected),
                      Table::num(static_cast<double>(r.uops) /
                                     base.uops,
                                 2)});
        }
    }
    t.print(std::cout);

    std::printf("\nTracking is always on (temporal safety state stays "
                "warm); check injection — and with it the overhead — "
                "scales with the protected code fraction.\n");
    return 0;
}
