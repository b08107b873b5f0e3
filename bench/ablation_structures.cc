/**
 * @file
 * Ablation: the design choices DESIGN.md calls out — the alias
 * cache's victim cache (Section V-C), the alias predictor's
 * blacklist, and capability-cache sizing — each toggled or swept
 * independently on the pointer-intensive workloads where they
 * matter.
 *
 * Each sweep is a (profile × ConfigPoint) matrix on the campaign
 * driver's worker pool, so both bench env knobs, CHEX_BENCH_SCALE
 * and CHEX_BENCH_JOBS, apply (see common.hh).
 */

#include <iostream>
#include <vector>

#include "base/table.hh"
#include "common.hh"

using namespace chex;
using namespace chex::bench;

namespace
{

std::vector<BenchmarkProfile>
profileList(std::initializer_list<const char *> names)
{
    std::vector<BenchmarkProfile> out;
    for (const char *name : names)
        out.push_back(profileByName(name));
    return out;
}

SystemConfig
predictionConfig()
{
    SystemConfig cfg;
    cfg.variant.kind = VariantKind::MicrocodePrediction;
    return cfg;
}

} // namespace

int
main()
{
    std::printf("Ablation: CHEx86 structure sizing and features\n\n");

    std::printf("(a) Alias-cache victim cache on/off:\n");
    {
        std::vector<BenchmarkProfile> profiles =
            profileList({"mcf", "canneal", "xalancbmk"});
        std::vector<ConfigPoint> points;
        for (unsigned victims : {32u, 1u}) {
            SystemConfig cfg = predictionConfig();
            cfg.aliasCache.victimEntries = victims;
            points.push_back(
                {victims > 1 ? "victim-32" : "victim-off", cfg});
        }
        std::vector<RunResult> results = runMatrix(profiles, points);
        Table va({"benchmark", "victim", "alias miss rate", "cycles"});
        for (size_t pi = 0; pi < profiles.size(); ++pi) {
            for (size_t ci = 0; ci < points.size(); ++ci) {
                const RunResult &r = results[pi * points.size() + ci];
                va.addRow({profiles[pi].name,
                           ci == 0 ? "32-entry" : "off",
                           Table::pct(r.aliasCacheMissRate),
                           std::to_string(r.cycles)});
            }
        }
        va.print(std::cout);
    }

    std::printf("\n(b) Alias-predictor blacklist sizing (the filter "
                "against destructive aliasing with data loads):\n");
    {
        std::vector<BenchmarkProfile> profiles =
            profileList({"perlbench", "canneal"});
        std::vector<ConfigPoint> points;
        for (unsigned entries : {512u, 16u}) {
            SystemConfig cfg = predictionConfig();
            cfg.aliasPredictor.blacklistEntries = entries;
            points.push_back(
                {"blacklist-" + std::to_string(entries), cfg});
        }
        std::vector<RunResult> results = runMatrix(profiles, points);
        Table bl({"benchmark", "blacklist", "accuracy",
                  "PNA0 zero-idioms"});
        const unsigned sizes[] = {512u, 16u};
        for (size_t pi = 0; pi < profiles.size(); ++pi) {
            for (size_t ci = 0; ci < points.size(); ++ci) {
                const RunResult &r = results[pi * points.size() + ci];
                bl.addRow({profiles[pi].name,
                           std::to_string(sizes[ci]) + " entries",
                           Table::pct(r.aliasPredAccuracy),
                           std::to_string(r.pna0ZeroIdioms)});
            }
        }
        bl.print(std::cout);
    }

    std::printf("\n(c) Capability-cache size sweep:\n");
    {
        std::vector<BenchmarkProfile> profiles =
            profileList({"xalancbmk", "canneal"});
        std::vector<ConfigPoint> points;
        for (unsigned entries : {16u, 32u, 64u, 128u}) {
            SystemConfig cfg = predictionConfig();
            cfg.capCacheEntries = entries;
            points.push_back(
                {"capcache-" + std::to_string(entries), cfg});
        }
        std::vector<RunResult> results = runMatrix(profiles, points);
        Table cc({"benchmark", "entries", "miss rate", "cycles"});
        const unsigned sizes[] = {16u, 32u, 64u, 128u};
        for (size_t pi = 0; pi < profiles.size(); ++pi) {
            for (size_t ci = 0; ci < points.size(); ++ci) {
                const RunResult &r = results[pi * points.size() + ci];
                cc.addRow({profiles[pi].name,
                           std::to_string(sizes[ci]),
                           Table::pct(r.capCacheMissRate),
                           std::to_string(r.cycles)});
            }
        }
        cc.print(std::cout);
    }
    return 0;
}
