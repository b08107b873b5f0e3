/**
 * @file
 * The ramp-then-churn driver shared by cap_scale and alias_scale.
 * Each bench supplies one rep — build a fresh table, ramp it to a
 * live target, churn it — and this driver runs that rep Reps times
 * at each of the 10K, 100K and 1M live targets. Every rep's
 * structural outputs must equal the first rep's (they are pure
 * functions of the seed); the fastest rep's wall time sets the row's
 * ops/second. The human-readable table goes to stderr and the JSON
 * record to stdout, so `cap_scale > BENCH_capscale.json` commits
 * cleanly.
 */

#ifndef CHEX_BENCH_SCALE_BENCH_HH
#define CHEX_BENCH_SCALE_BENCH_HH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "base/json.hh"
#include "common.hh"

namespace chex
{
namespace bench
{

/** A structural output of one rep: deterministic in the seed. */
struct ScaleField
{
    const char *name;   // record member
    uint64_t value;
    const char *column; // stderr table header, or nullptr
    int width;          // stderr table column width

    // Two reps' fields come from the same runRep code, so equal
    // names and headers are the same literals.
    bool operator==(const ScaleField &) const = default;
};

/** One rep of a scale bench at one live target. */
struct ScaleRep
{
    uint64_t ops = 0;               // table operations executed
    std::vector<ScaleField> fields; // further structural outputs
    double seconds = 0.0;           // wall time of the timed part
};

/** Hash-combine @p v into @p h, for the reps' result checksums. */
inline uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

/**
 * Run @p run_rep(live_target, churn_ops) Reps times per live target
 * and print the @p schema record; returns the exit status. A rep
 * whose structural outputs differ from the first rep's fails the
 * run, naming @p tool.
 */
inline int
runScaleBench(const char *schema, const char *tool, uint64_t seed,
              const std::function<ScaleRep(uint64_t, uint64_t)> &run_rep)
{
    constexpr int Reps = 3;
    const uint64_t scale = bench::scale();
    const uint64_t churn_ops = std::max<uint64_t>(100000, 2000000 / scale);

    json::Value doc;
    doc.set("schema", schema).set("seed", seed).set("scale", scale);
    doc.set("reps", static_cast<uint64_t>(Reps)).set("churnOps", churn_ops);

    json::Value rows = json::Value::array();
    for (uint64_t target : {10000, 100000, 1000000}) {
        ScaleRep first = run_rep(target, churn_ops);
        double best = first.seconds;
        for (int rep = 1; rep < Reps; ++rep) {
            ScaleRep r = run_rep(target, churn_ops);
            if (r.ops != first.ops || r.fields != first.fields) {
                std::fprintf(stderr,
                             "%s: nondeterministic rep at live=%llu\n",
                             tool,
                             static_cast<unsigned long long>(target));
                return 1;
            }
            best = std::min(best, r.seconds);
        }
        double rate =
            best > 0.0 ? static_cast<double>(first.ops) / best : 0.0;

        if (target == 10000) {
            std::fprintf(stderr, "%-12s %12s", "live", "table ops");
            for (const ScaleField &f : first.fields)
                if (f.column)
                    std::fprintf(stderr, " %*s", f.width, f.column);
            std::fprintf(stderr, " %10s %14s\n", "best s", "ops/s");
        }
        std::fprintf(stderr, "%-12llu %12llu",
                     static_cast<unsigned long long>(target),
                     static_cast<unsigned long long>(first.ops));
        for (const ScaleField &f : first.fields)
            if (f.column)
                std::fprintf(stderr, " %*llu", f.width,
                             static_cast<unsigned long long>(f.value));
        std::fprintf(stderr, " %10.4f %14.0f\n", best, rate);

        json::Value row;
        row.set("liveTarget", target).set("ops", first.ops);
        for (const ScaleField &f : first.fields)
            row.set(f.name, f.value);
        row.set("bestWallSeconds", best).set("opsPerSecond", rate);
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));

    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
}

} // namespace bench
} // namespace chex

#endif // CHEX_BENCH_SCALE_BENCH_HH
