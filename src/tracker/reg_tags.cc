#include "reg_tags.hh"

#include <algorithm>
#include <utility>

namespace chex
{

void
RegTagFile::grow()
{
    size_t cap = ring.empty() ? InitialCapacity : 2 * ring.size();
    std::vector<Transient> bigger(cap);
    for (uint64_t p = head; p != tail; ++p)
        bigger[p & (cap - 1)] = ring[p & mask];
    ring = std::move(bigger);
    mask = cap - 1;
}

void
RegTagFile::squashAfter(uint64_t seq)
{
    while (head != tail) {
        const Transient &t = ring[(tail - 1) & mask];
        if (t.seq <= seq)
            break;
        youngest[t.reg] = t.prev;
        --tail;
    }
}

void
RegTagFile::clear()
{
    std::fill(std::begin(finalized), std::end(finalized), NoPid);
    std::fill(std::begin(youngest), std::end(youngest), 0);
    head = tail = 1;
}

namespace
{

/** One register's snapshot record: its finalized tag and its
 * transients as (seq, pid), oldest first. */
struct RegRecord
{
    Pid finalized = NoPid;
    std::vector<std::pair<uint64_t, Pid>> transients;
};

/** A register's transient tags as [seq, pid] pairs in ascending
 * sequence order (write() relies on the order). */
struct Transients
{
    std::vector<std::pair<uint64_t, Pid>> &tags;

    json::Value
    encode() const
    {
        json::Value out = json::Value::array();
        for (const auto &t : tags)
            out.push(json::encode(t));
        return out;
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        tags.clear();
        return json::decodePairs<uint64_t, Pid>(
            v,
            [this](uint64_t seq, Pid pid, std::string *) {
                tags.emplace_back(seq, pid);
                return true;
            },
            why);
    }
};

auto regRecord = [](auto &t) {
    return json::Group{[&t](auto &g) {
        g("finalized", t.finalized);
        g("transients", Transients{t.transients});
    }};
};

} // namespace

json::Value
RegTagFile::encode() const
{
    RegRecord recs[NumArchRegs];
    for (size_t r = 0; r < NumArchRegs; ++r)
        recs[r].finalized = finalized[r];
    for (uint64_t p = head; p != tail; ++p) {
        const Transient &t = ring[p & mask];
        recs[t.reg].transients.emplace_back(t.seq, t.pid);
    }
    return json::FixedLength{recs, regRecord}.encode();
}

bool
RegTagFile::decode(const json::Value &v, std::string *why)
{
    RegRecord recs[NumArchRegs];
    if (!json::FixedLength{recs, regRecord}.decode(v, why))
        return false;
    clear();
    // Merge the ascending per-register lists into the ring by seq.
    std::vector<Transient> merged;
    for (size_t r = 0; r < NumArchRegs; ++r) {
        finalized[r] = recs[r].finalized;
        for (auto [seq, pid] : recs[r].transients)
            merged.push_back({seq, 0, pid, static_cast<RegId>(r)});
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const Transient &a, const Transient &b) {
                         return a.seq < b.seq;
                     });
    for (const Transient &t : merged)
        write(t.reg, t.pid, t.seq);
    return true;
}

} // namespace chex
