#include "reg_tags.hh"

#include <bit>

#include "base/logging.hh"

namespace chex
{

RegTagFile::RegTagFile() = default;

Pid
RegTagFile::current(RegId reg) const
{
    chex_assert(reg < NumArchRegs, "bad register");
    const RegTag &t = tags[reg];
    if (!t.transients.empty())
        return t.transients.back().pid;
    return t.finalized;
}

Pid
RegTagFile::committed(RegId reg) const
{
    chex_assert(reg < NumArchRegs, "bad register");
    return tags[reg].finalized;
}

void
RegTagFile::write(RegId reg, Pid pid, uint64_t seq)
{
    chex_assert(reg < NumArchRegs, "bad register");
    RegTag &t = tags[reg];
    chex_assert(t.transients.empty() || t.transients.back().seq < seq,
                "out-of-order transient write");
    t.transients.push_back({seq, pid});
    nonEmpty |= 1ull << reg;
}

void
RegTagFile::commitUpTo(uint64_t seq)
{
    for (uint64_t m = nonEmpty; m; m &= m - 1) {
        RegTag &t = tags[std::countr_zero(m)];
        size_t n = 0;
        while (n < t.transients.size() && t.transients[n].seq <= seq)
            ++n;
        if (n > 0) {
            t.finalized = t.transients[n - 1].pid;
            t.transients.erase(t.transients.begin(),
                               t.transients.begin() + n);
            if (t.transients.empty())
                nonEmpty &= ~(1ull << std::countr_zero(m));
        }
    }
}

void
RegTagFile::squashAfter(uint64_t seq)
{
    for (uint64_t m = nonEmpty; m; m &= m - 1) {
        RegTag &t = tags[std::countr_zero(m)];
        while (!t.transients.empty() && t.transients.back().seq > seq)
            t.transients.pop_back();
        if (t.transients.empty())
            nonEmpty &= ~(1ull << std::countr_zero(m));
    }
}

size_t
RegTagFile::transientCount() const
{
    size_t n = 0;
    for (uint64_t m = nonEmpty; m; m &= m - 1)
        n += tags[std::countr_zero(m)].transients.size();
    return n;
}

void
RegTagFile::clear()
{
    for (auto &t : tags) {
        t.finalized = NoPid;
        t.transients.clear();
    }
    nonEmpty = 0;
}

namespace
{

/** A register's transient tags as [seq, pid] pairs in ascending
 * sequence order (write() relies on the order). */
template <typename V>
struct Transients
{
    V &tags;

    json::Value
    encode() const
    {
        json::Value out = json::Value::array();
        for (const auto &t : tags)
            out.push(json::encode(std::pair(t.seq, t.pid)));
        return out;
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        tags.clear();
        return json::decodePairs<uint64_t, Pid>(
            v,
            [this](uint64_t seq, Pid pid, std::string *) {
                tags.push_back({seq, pid});
                return true;
            },
            why);
    }
};

/** One register's snapshot record. */
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
    return json::FixedLength{tags, regRecord}.encode();
}

bool
RegTagFile::decode(const json::Value &v, std::string *why)
{
    if (!json::FixedLength{tags, regRecord}.decode(v, why))
        return false;
    nonEmpty = 0;
    for (size_t r = 0; r < NumArchRegs; ++r)
        if (!tags[r].transients.empty())
            nonEmpty |= 1ull << r;
    return true;
}

} // namespace chex
