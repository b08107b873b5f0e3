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
    h.str("profile.name"_tag, p.name);
    h.u64("profile.isParsec"_tag, p.isParsec);
    h.u64("profile.totalAllocations"_tag, p.totalAllocations);
    h.u64("profile.maxLiveBuffers"_tag, p.maxLiveBuffers);
    h.u64("profile.buffersInUse"_tag, p.buffersInUse);
    h.u64("profile.allocSizeMin"_tag, p.allocSizeMin);
    h.u64("profile.allocSizeMax"_tag, p.allocSizeMax);
    h.u64("profile.dominantPattern"_tag,
          static_cast<uint64_t>(p.dominantPattern));
    h.f64("profile.pointerIntensity"_tag, p.pointerIntensity);
    h.u64("profile.chaseDepth"_tag, p.chaseDepth);
    h.u64("profile.accessesPerVisit"_tag, p.accessesPerVisit);
    h.f64("profile.fpFraction"_tag, p.fpFraction);
    h.f64("profile.branchiness"_tag, p.branchiness);
    h.u64("profile.iterations"_tag, p.iterations);
    h.u64("profile.scheduleLength"_tag, p.scheduleLength);
}

} // namespace

uint64_t
specHash(const JobSpec &spec, uint64_t seed)
{
    TaggedHasher h;
    hashProfile(h, spec.profile);
    hashSystemConfig(h, spec.config);
    h.u64("seed"_tag, seed);
    // Guarded so every pre-existing (non-attack) spec keeps its
    // historical hash: old reports stay valid cache inputs.
    if (!spec.attack.empty())
        h.str("attack.case"_tag, spec.attack);
    return h.digest();
}

uint64_t
foldSnapshotHash(uint64_t spec_hash, uint64_t state_hash)
{
    TaggedHasher h;
    h.u64("spec"_tag, spec_hash);
    h.u64("snapshot.stateHash"_tag, state_hash);
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
