#include "spec_hash.hh"

#include "base/fnv.hh"
#include "base/logging.hh"
#include "base/member_count.hh"
#include "sim/config_hash.hh"

namespace chex
{
namespace driver
{

namespace
{

// hashProfile() hashes every member; a new one fails here until it
// is hashed and the count is raised.
static_assert(memberCount<BenchmarkProfile> == 15);

void
hashProfile(TaggedHasher &h, const BenchmarkProfile &p)
{
    h.str("profile.name", p.name);
    h.u64("profile.isParsec", p.isParsec);
    h.u64("profile.totalAllocations", p.totalAllocations);
    h.u64("profile.maxLiveBuffers", p.maxLiveBuffers);
    h.u64("profile.buffersInUse", p.buffersInUse);
    h.u64("profile.allocSizeMin", p.allocSizeMin);
    h.u64("profile.allocSizeMax", p.allocSizeMax);
    h.u64("profile.dominantPattern",
          static_cast<uint64_t>(p.dominantPattern));
    h.f64("profile.pointerIntensity", p.pointerIntensity);
    h.u64("profile.chaseDepth", p.chaseDepth);
    h.u64("profile.accessesPerVisit", p.accessesPerVisit);
    h.f64("profile.fpFraction", p.fpFraction);
    h.f64("profile.branchiness", p.branchiness);
    h.u64("profile.iterations", p.iterations);
    h.u64("profile.scheduleLength", p.scheduleLength);
}

} // namespace

uint64_t
specHash(const JobSpec &spec, uint64_t seed)
{
    TaggedHasher h;
    hashProfile(h, spec.profile);
    hashSystemConfig(h, spec.config);
    h.u64("seed", seed);
    // Guarded so every pre-existing (non-attack) spec keeps its
    // historical hash: old reports stay valid cache inputs.
    if (!spec.attack.empty())
        h.str("attack.case", spec.attack);
    return h.digest();
}

uint64_t
foldSnapshotHash(uint64_t spec_hash, uint64_t state_hash)
{
    TaggedHasher h;
    h.u64("spec", spec_hash);
    h.u64("snapshot.stateHash", state_hash);
    return h.digest();
}

std::string
specHashHex(uint64_t hash)
{
    return csprintf("%016llx",
                    static_cast<unsigned long long>(hash));
}

uint64_t
specHashFromHex(const std::string &hex)
{
    // specHashHex always writes exactly 16 digits; anything else is
    // a corrupt report member, not a shorter encoding.
    if (hex.size() != 16)
        return 0;
    uint64_t v = 0;
    for (char c : hex) {
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else if (c >= 'A' && c <= 'F')
            digit = c - 'A' + 10;
        else
            return 0;
        v = (v << 4) | static_cast<uint64_t>(digit);
    }
    return v;
}

} // namespace driver
} // namespace chex
