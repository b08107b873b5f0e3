#include "snapshot.hh"

#include "base/fields.hh"
#include "snapshot/codec.hh"
#include "workload/generator.hh"

namespace chex
{
namespace snapshot
{

const MachineEntry *
Bundle::findBySpecKey(uint64_t key) const
{
    if (!key)
        return nullptr; // 0 marks unhashable jobs; never match them
    for (const MachineEntry &e : entries)
        if (e.specKey == key)
            return &e;
    return nullptr;
}

bool
buildEntry(const BenchmarkProfile &profile, const SystemConfig &config,
           uint64_t seed, uint64_t warmup_macros, uint64_t spec_key,
           MachineEntry *out, std::string *err)
{
    System sys(config);
    sys.load(generateWorkload(profile, seed));
    if (!sys.runMacros(warmup_macros)) {
        if (err) {
            *err = "workload '" + profile.name + "' terminated before " +
                   "the warm-up point; nothing to checkpoint "
                   "(shorten --warmup)";
        }
        return false;
    }
    std::string save_err;
    json::Value state = sys.saveSnapshot(&save_err);
    if (state.isNull()) {
        if (err)
            *err = save_err;
        return false;
    }
    out->profileName = profile.name;
    out->variant = variantName(config.variant.kind);
    out->seed = seed;
    out->specKey = spec_key;
    out->warmupMacros = warmup_macros;
    out->stateHash = jsonStateHash(state);
    out->state = std::move(state);
    return true;
}

bool
restoreEntry(const MachineEntry &entry, const BenchmarkProfile &profile,
             System *sys, std::string *err)
{
    sys->load(generateWorkload(profile, entry.seed));
    return sys->restoreSnapshot(entry.state, err);
}

// Field lists (base/fields.hh): every bundle member is named here.

template <json::Is<MachineEntry> E, typename F>
void
fields(E &e, F &&f)
{
    f("profile", e.profileName);
    f("variant", e.variant);
    f("seed", e.seed);
    f("specKey", json::Hex64{e.specKey});
    f("warmupMacros", e.warmupMacros);
    f("stateHash", json::Hex64{e.stateHash});
    f("state", e.state);
}

template <json::Is<Bundle> B, typename F>
void
fields(B &b, F &&f)
{
    f("format", json::Pinned{std::string(BundleFormatTag)});
    f("campaignSeed", b.campaignSeed);
    f("warmupMacros", b.warmupMacros);
    f("entries", b.entries);
}

json::Value
toJson(const Bundle &bundle)
{
    return json::encode(bundle);
}

bool
fromJson(const json::Value &v, Bundle *out, std::string *err)
{
    Bundle b;
    std::string why;
    if (!json::decode(v, b, &why)) {
        if (err)
            *err = "snapshot bundle: " + json::describe(why, "document");
        return false;
    }
    // Verify each recorded state digest against the bytes just
    // parsed: bundles are large files that get copied between
    // machines, and a silently truncated or edited state must not
    // restore into a subtly different simulation.
    for (const MachineEntry &e : b.entries) {
        uint64_t got = jsonStateHash(e.state);
        if (got != e.stateHash) {
            if (err) {
                *err = "snapshot bundle entry '" + e.profileName + "/" +
                       e.variant + "' is corrupt: state hash " +
                       stateHashHex(got) + " != recorded " +
                       stateHashHex(e.stateHash);
            }
            return false;
        }
    }
    *out = std::move(b);
    return true;
}

bool
writeBundleFile(const std::string &path, const Bundle &bundle,
                std::string *err)
{
    return writeTextFile(path, toJson(bundle).dump(2) + "\n", err);
}

bool
loadBundleFile(const std::string &path, Bundle *out, std::string *err)
{
    std::string text;
    if (!readTextFile(path, &text, err))
        return false;
    json::Value v;
    std::string parse_err;
    if (!json::Value::parse(text, v, &parse_err)) {
        if (err)
            *err = "'" + path + "' is not valid JSON: " + parse_err;
        return false;
    }
    return fromJson(v, out, err);
}

} // namespace snapshot
} // namespace chex
