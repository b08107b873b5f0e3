/**
 * @file
 * Perf-record comparator for CI: `bench-compare BASELINE NEW` diffs
 * two committed benchmark documents of the same schema. Every
 * supported schema is one entry of the table below:
 *
 *  - chex-bench-capscale-v1 (cap_scale → BENCH_capscale.json):
 *    per-live-target capability-table op counts, capability totals,
 *    peak shadow bytes, result checksum, and host ops/second.
 *  - chex-bench-aliasscale-v1 (alias_scale → BENCH_aliasscale.json):
 *    per-live-target alias-table op counts, live entries, node
 *    counts, peak/end shadow bytes, result checksum, and host
 *    ops/second.
 *  - chex-bench-paper-v1 (paper → BENCH_paper.json): the headline
 *    values and paper-shape claims of the evaluation, and per cell
 *    the result fields its tables read and the simulated IPC.
 *  - chex-security-report-v1 (chex-campaign attack →
 *    BENCH_security.json): campaign job counts, baseline validity,
 *    escape count, and per-variant attack/detected/anchor counts,
 *    violation-class breakdown, and detection rate.
 *
 * An entry names the record's parts and how each one compares:
 *
 *  - cell fields: the measurement point (seed, scale, ...). Records
 *    of different cells are not comparable: exit 1.
 *  - exact fields, at the top level or per row (rows are matched by
 *    their key field): deterministic outputs, pure functions of the
 *    cell. Host-side optimizations must not move them, so any drift
 *    is FATAL — a bug, or a deliberate model change that forgot to
 *    regenerate the committed record. An object-valued field
 *    compares member by member, an array-valued one by length.
 *  - the rate field: host throughput depends on the machine running
 *    the comparison, so a drop past --tolerance (default 25%) only
 *    warns. The security report's rate is its detection rate, a
 *    deterministic output whose every drop is FATAL and called out
 *    by name: it is the regression that comparison exists to catch.
 *    The paper record's simulated IPC is compared the same way.
 *
 * A field missing from either record is FATAL, never read as 0.
 * Exit status: 0 on match (warnings included), 1 on fatal drift or
 * unreadable/mismatched inputs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"

namespace
{

using chex::json::Value;

struct RecordSchema
{
    const char *schema;
    std::vector<std::string> cell;  // must match, else exit 1
    std::vector<std::string> exact; // top level ("a.b" descends)
    const char *rows;               // the rows array ...
    const char *key;                // ... and the field keying it
    std::vector<std::string> rowExact;
    const char *rate;
    const char *rateLabel;
    bool rateDropFatal; // any drop is FATAL (else: warn past tolerance)
};

const RecordSchema Schemas[] = {
    {"chex-bench-capscale-v1", {"seed", "scale", "churnOps"}, {},
     "rows", "liveTarget",
     {"ops", "totalCapabilities", "liveCapabilities", "peakShadowBytes",
      "checksum"},
     "opsPerSecond", "ops/s", false},
    {"chex-bench-aliasscale-v1", {"seed", "scale", "churnOps"}, {},
     "rows", "liveTarget",
     {"ops", "liveEntries", "peakShadowBytes", "endShadowBytes",
      "liveNodes", "checksum"},
     "opsPerSecond", "ops/s", false},
    {"chex-bench-paper-v1", {"seed", "scale"}, {"headline", "claims"},
     "rows", "label",
     {"cycles", "uops", "totalAllocations", "maxLiveAllocations",
      "avgAllocationsInUse", "capCacheMissRate", "aliasCacheMissRate",
      "aliasPredAccuracy", "reloadMispredictionRate", "p0anFlushes",
      "pmanForwards", "pna0ZeroIdioms", "squashFraction",
      "residentBytes", "footprintBytes", "bandwidthMBps",
      "capChecksInjected"},
     "ipc", "IPC", true},
    {"chex-security-report-v1", {"campaignSeed"},
     {"attackJobs", "failedJobs", "baseline.checked", "baseline.valid",
      "escaped"},
     "variants", "variant",
     {"attacks", "detected", "anchorMatches", "byClass"},
     "detectionRate", "detection rate", true},
};

double g_tolerance = 0.25;
const char *g_paths[2] = {nullptr, nullptr};
int g_fatal = 0;
int g_warnings = 0;

bool
readDoc(const char *path, Value &doc)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench-compare: cannot open %s\n", path);
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!Value::parse(ss.str(), doc, &err)) {
        std::fprintf(stderr, "bench-compare: %s: %s\n", path,
                     err.c_str());
        return false;
    }
    return true;
}

/** The member at @p path ("a.b" descends), or nullptr. */
const Value *
lookup(const Value &doc, const std::string &path)
{
    const Value *v = &doc;
    size_t start = 0;
    for (;;) {
        size_t dot = path.find('.', start);
        v = v->find(path.substr(start, dot - start));
        if (!v || dot == std::string::npos)
            return v;
        start = dot + 1;
    }
}

/** A value as printed in messages and compared as a key. */
std::string
text(const Value &v)
{
    return v.isString() ? v.str() : v.dump();
}

/** Deterministic output: any drift, or absence, is fatal. */
void
compareExact(const std::string &row, const std::string &field,
             const Value *b, const Value *n)
{
    if (!b || !n) {
        std::fprintf(stderr, "FATAL: %s: %s missing from %s\n",
                     row.c_str(), field.c_str(), g_paths[b ? 1 : 0]);
        ++g_fatal;
        return;
    }
    if (b->isObject() && n->isObject()) {
        std::set<std::string> keys;
        for (const Value *v : {b, n})
            for (const auto &member : v->members())
                keys.insert(member.first);
        for (const std::string &k : keys)
            compareExact(row, field + "." + k, b->find(k), n->find(k));
        return;
    }
    std::string bt = b->isArray() ? std::to_string(b->size()) : text(*b);
    std::string nt = n->isArray() ? std::to_string(n->size()) : text(*n);
    if (bt != nt) {
        std::fprintf(stderr, "FATAL: %s: %s drifted: %s -> %s\n",
                     row.c_str(), field.c_str(), bt.c_str(), nt.c_str());
        ++g_fatal;
    }
}

void
compareRate(const RecordSchema &s, const std::string &row,
            const Value *b, const Value *n)
{
    if (!b || !n || !b->isNumber() || !n->isNumber()) {
        compareExact(row, s.rate, b && b->isNumber() ? b : nullptr,
                     n && n->isNumber() ? n : nullptr);
        return;
    }
    double bv = b->number(), nv = n->number();
    if (s.rateDropFatal && nv < bv) {
        std::fprintf(stderr, "FATAL: %s: %s dropped %.4f -> %.4f\n",
                     row.c_str(), s.rateLabel, bv, nv);
        ++g_fatal;
    } else if (!s.rateDropFatal && bv > 0.0 &&
               nv < bv * (1.0 - g_tolerance)) {
        std::fprintf(stderr,
                     "WARNING: %s: %s dropped %.0f -> %.0f "
                     "(-%.1f%%, tolerance %.0f%%)\n",
                     row.c_str(), s.rateLabel, bv, nv,
                     100.0 * (1.0 - nv / bv), 100.0 * g_tolerance);
        ++g_warnings;
    }
}

/** The record's rows by key; false when they cannot be read. */
bool
loadRows(const RecordSchema &s, const Value &doc, const char *path,
         std::map<std::string, const Value *> &rows)
{
    const Value *arr = doc.find(s.rows);
    if (!arr || !arr->isArray()) {
        std::fprintf(stderr, "bench-compare: %s: missing %s[]\n", path,
                     s.rows);
        return false;
    }
    for (const Value &row : arr->items()) {
        const Value *key = row.find(s.key);
        if (!key) {
            std::fprintf(stderr, "bench-compare: %s: a %s row has no "
                         "'%s'\n", path, s.rows, s.key);
            return false;
        }
        rows[std::string(s.key) + "=" + text(*key)] = &row;
    }
    return true;
}

int
compare(const RecordSchema &s, const Value &base_doc,
        const Value &new_doc)
{
    for (const std::string &field : s.cell) {
        const Value *b = base_doc.find(field);
        const Value *n = new_doc.find(field);
        if (!b || !n || text(*b) != text(*n)) {
            std::fprintf(stderr,
                         "bench-compare: %s differs (%s vs %s) — the "
                         "records measure different cells\n",
                         field.c_str(), b ? text(*b).c_str() : "missing",
                         n ? text(*n).c_str() : "missing");
            return 1;
        }
    }

    std::map<std::string, const Value *> base_rows, new_rows;
    if (!loadRows(s, base_doc, g_paths[0], base_rows) ||
        !loadRows(s, new_doc, g_paths[1], new_rows)) {
        return 1;
    }

    for (const std::string &field : s.exact) {
        compareExact("record", field, lookup(base_doc, field),
                     lookup(new_doc, field));
    }
    for (const auto &[name, b] : base_rows) {
        auto it = new_rows.find(name);
        if (it == new_rows.end()) {
            std::fprintf(stderr, "FATAL: %s missing from %s\n",
                         name.c_str(), g_paths[1]);
            ++g_fatal;
            continue;
        }
        const Value *n = it->second;
        compareRate(s, name, b->find(s.rate), n->find(s.rate));
        for (const std::string &field : s.rowExact)
            compareExact(name, field, b->find(field), n->find(field));
    }
    for (const auto &[name, row] : new_rows) {
        (void)row;
        if (!base_rows.count(name))
            std::fprintf(stderr, "note: new %s not in baseline\n",
                         name.c_str());
    }

    if (g_fatal)
        return 1;
    std::fprintf(stderr,
                 "bench-compare: deterministic outputs match for all "
                 "%zu %s (%d wall-clock warning(s))\n",
                 base_rows.size(), s.rows, g_warnings);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int npaths = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            g_tolerance = std::atof(argv[++i]);
        } else if (npaths < 2) {
            g_paths[npaths++] = argv[i];
        } else {
            npaths = 3; // too many
            break;
        }
    }
    if (npaths != 2) {
        std::fprintf(stderr,
                     "usage: bench-compare [--tolerance F] "
                     "BASELINE.json NEW.json\n");
        return 1;
    }

    Value base_doc, new_doc;
    if (!readDoc(g_paths[0], base_doc) || !readDoc(g_paths[1], new_doc))
        return 1;

    const Value *base_schema = base_doc.find("schema");
    const Value *new_schema = new_doc.find("schema");
    std::string schema = base_schema ? text(*base_schema) : "";
    if (!new_schema || text(*new_schema) != schema) {
        std::fprintf(stderr,
                     "bench-compare: schema mismatch: %s is '%s', "
                     "%s is '%s'\n",
                     g_paths[0], schema.c_str(), g_paths[1],
                     new_schema ? text(*new_schema).c_str() : "");
        return 1;
    }
    for (const RecordSchema &s : Schemas)
        if (schema == s.schema)
            return compare(s, base_doc, new_doc);

    std::fprintf(stderr, "bench-compare: unsupported schema '%s' "
                 "(expected one of:", schema.c_str());
    for (const RecordSchema &s : Schemas)
        std::fprintf(stderr, " %s", s.schema);
    std::fprintf(stderr, ")\n");
    return 1;
}
