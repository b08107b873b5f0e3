#include "cap_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace chex
{

CapabilityTable::CapabilityTable() = default;

Pid
CapabilityTable::beginGeneration(uint64_t request_size,
                                 Violation *violation)
{
    if (violation)
        *violation = Violation::None;
    if (request_size > maxAllocSize) {
        if (violation)
            *violation = Violation::OversizeAlloc;
        return NoPid;
    }
    Pid pid = nextPid++;
    Capability cap;
    cap.bounds = static_cast<uint32_t>(request_size);
    cap.perms = CapBusy | CapRead | CapWrite | CapHeap;
    store.assign(pid, cap);
    return pid;
}

void
CapabilityTable::endGeneration(Pid pid, uint64_t base)
{
    Capability *cap = store.find(pid);
    if (!cap)
        return;
    cap->base = base;
    cap->perms &= ~CapBusy;
    if (base != 0) {
        cap->perms |= CapValid;
        liveByBase.assign(base, pid);
        ++liveCount;
    }
}

Violation
CapabilityTable::beginFree(Pid pid, uint64_t addr)
{
    if (pid == NoPid || pid == WildPid)
        return Violation::InvalidFree;
    Capability *cap = store.find(pid);
    if (!cap)
        return Violation::InvalidFree;
    if (!(cap->perms & CapHeap))
        return Violation::InvalidFree; // e.g. freeing a global
    if (!cap->valid())
        return Violation::DoubleFree;
    if (addr != cap->base)
        return Violation::InvalidFree; // freeing an interior pointer
    cap->perms |= CapBusy;
    return Violation::None;
}

void
CapabilityTable::endFree(Pid pid)
{
    Capability *cap = store.find(pid);
    if (!cap)
        return;
    bool was_valid = cap->valid();
    cap->perms &= ~(CapValid | CapBusy);
    if (was_valid) {
        liveByBase.erase(cap->base);
        freedByBase.assign(cap->base, pid);
        --liveCount;
    }
}

Pid
CapabilityTable::addGlobal(const std::string &name, uint64_t base,
                           uint64_t size)
{
    (void)name;
    Pid pid = nextPid++;
    Capability cap;
    cap.base = base;
    cap.bounds = static_cast<uint32_t>(size);
    cap.perms = CapValid | CapRead | CapWrite;
    store.assign(pid, cap);
    liveByBase.assign(base, pid);
    ++liveCount;
    return pid;
}

CheckResult
CapabilityTable::check(Pid pid, uint64_t addr, uint64_t size,
                       bool is_write) const
{
    CheckResult result;
    if (pid == NoPid)
        return result; // untracked pointer: no check to perform
    if (pid == WildPid) {
        result.violation = Violation::WildPointer;
        return result;
    }
    const Capability *cap = store.find(pid);
    if (!cap) {
        result.violation = Violation::WildPointer;
        return result;
    }
    if (!cap->valid()) {
        result.violation = Violation::UseAfterFree;
        return result;
    }
    if (!cap->contains(addr, size)) {
        result.violation = Violation::OutOfBounds;
        return result;
    }
    if (is_write && !cap->writable()) {
        result.violation = Violation::PermissionDenied;
        return result;
    }
    if (!is_write && !cap->readable()) {
        result.violation = Violation::PermissionDenied;
        return result;
    }
    return result;
}

const Capability *
CapabilityTable::find(Pid pid) const
{
    return store.find(pid);
}

namespace
{

Pid
searchByBase(const IntervalIndex &index,
             const PagedCapabilityStore &store, uint64_t addr)
{
    uint64_t base;
    Pid pid;
    if (!index.floor(addr, &base, &pid))
        return NoPid;
    const Capability *cap = store.find(pid);
    if (!cap)
        return NoPid;
    if (addr >= cap->base && addr < cap->base + cap->bounds)
        return pid;
    return NoPid;
}

} // anonymous namespace

Pid
CapabilityTable::pidForAddress(uint64_t addr) const
{
    if (Pid pid = searchByBase(liveByBase, store, addr))
        return pid;
    return searchByBase(freedByBase, store, addr);
}

void
CapabilityTable::markInitialized(Pid pid, uint64_t addr, uint64_t size)
{
    if (!trackInit || pid == NoPid || pid == WildPid)
        return;
    const Capability *cap = store.find(pid);
    if (!cap || !cap->valid())
        return;
    if (addr < cap->base || addr >= cap->base + cap->bounds)
        return;
    uint64_t first_word = (addr - cap->base) / 8;
    uint64_t last_word = (addr + std::max<uint64_t>(size, 1) - 1 -
                          cap->base) / 8;
    InitShadow &sh = initBits[pid];
    sh.words = std::max(sh.words, initWordsFor(*cap));
    sh.set.add(first_word, last_word + 1);
}

void
CapabilityTable::markAllInitialized(Pid pid)
{
    if (!trackInit)
        return;
    const Capability *cap = store.find(pid);
    if (!cap)
        return;
    // The old representation re-assigned the whole bitmap here, so
    // the shadow length snaps to the capability's size even if a
    // restored entry was longer.
    InitShadow &sh = initBits[pid];
    sh.words = initWordsFor(*cap);
    sh.set.clear();
    sh.set.add(0, sh.words * 64);
}

bool
CapabilityTable::isInitialized(Pid pid, uint64_t addr,
                               uint64_t size) const
{
    const Capability *cap = store.find(pid);
    if (!cap)
        return true;
    auto bit = initBits.find(pid);
    if (bit == initBits.end())
        return false;
    const InitShadow &sh = bit->second;
    uint64_t first_word = (addr - cap->base) / 8;
    uint64_t last_word =
        (addr + std::max<uint64_t>(size, 1) - 1 - cap->base) / 8;
    // Words past the shadow length read as uninitialized, exactly
    // like indexing past the old bitmap vector.
    if (first_word > last_word || last_word >= sh.words * 64)
        return false;
    return sh.set.covers(first_word, last_word + 1);
}

uint64_t
CapabilityTable::initShadowBytes() const
{
    uint64_t bytes = 0;
    for (const auto &[pid, sh] : initBits) {
        (void)pid;
        bytes += sizeof(InitShadow) + sh.set.storageBytes();
    }
    return bytes;
}

void
CapabilityTable::clear()
{
    store.clear();
    liveByBase.clear();
    freedByBase.clear();
    initBits.clear();
    nextPid = 1;
    liveCount = 0;
}

namespace
{

/** One capability's snapshot record. */
template <typename P, typename C>
auto
capRecord(P &pid, C &cap)
{
    return [&](auto &f) {
        f("pid", pid);
        f("base", cap.base);
        f("bounds", cap.bounds);
        f("perms", cap.perms);
    };
}

/** One initialization shadow's snapshot record. */
template <typename P, typename S>
auto
initRecord(P &pid, S &sh)
{
    return [&](auto &f) {
        f("pid", pid);
        f("words", sh.words);
        f("ranges", sh.set);
    };
}

/** A PID read from a record: nonzero, since PID 0 is NoPid. */
bool
checkPid(Pid pid, std::string *why)
{
    return pid != NoPid || json::reject(why, ".pid is 0");
}

/** The capability store as capRecord()s in ascending PID order. */
template <typename T>
struct CapList
{
    T &store;

    json::Value
    encode() const
    {
        json::Value out = json::Value::array();
        store.forEach([&](Pid pid, const Capability &cap) {
            out.push(json::encodeObject(capRecord(pid, cap)));
        });
        return out;
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        return json::decodeAscending<Pid>(
            v,
            [this](const json::Value &item, Pid &pid, std::string *why) {
                Capability cap;
                if (!json::decodeObject(item, capRecord(pid, cap), why) ||
                    !checkPid(pid, why))
                    return false;
                store.assign(pid, cap);
                return true;
            },
            why);
    }
};

/**
 * An interval index as [base, pid] pairs in ascending base order.
 * It is written verbatim rather than rebuilt from the perms bits: on
 * base collisions (a freed block re-allocated at the same address)
 * the index keeps the most recent PID, which a rebuild from the
 * capability store could not reproduce deterministically.
 */
template <typename T>
struct IndexPairs
{
    T &index;

    json::Value
    encode() const
    {
        json::Value out = json::Value::array();
        index.forEach([&](uint64_t base, Pid pid) {
            out.push(json::encode(std::pair(base, pid)));
        });
        return out;
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        return json::decodePairs<uint64_t, Pid>(
            v,
            [this](uint64_t base, Pid pid, std::string *) {
                index.assign(base, pid);
                return true;
            },
            why);
    }
};

/** The initialization shadows as initRecord()s in ascending PID
 * order. */
template <typename T>
struct InitList
{
    T &shadows;

    json::Value
    encode() const
    {
        std::vector<Pid> pids;
        pids.reserve(shadows.size());
        for (const auto &entry : shadows)
            pids.push_back(entry.first);
        std::sort(pids.begin(), pids.end());
        json::Value out = json::Value::array();
        for (Pid pid : pids)
            out.push(json::encodeObject(initRecord(pid, shadows.at(pid))));
        return out;
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        return json::decodeAscending<Pid>(
            v,
            [this](const json::Value &item, Pid &pid, std::string *why) {
                typename T::mapped_type sh;
                if (!json::decodeObject(item, initRecord(pid, sh), why) ||
                    !checkPid(pid, why))
                    return false;
                shadows[pid] = std::move(sh);
                return true;
            },
            why);
    }
};

} // namespace

template <typename S, typename F>
void
CapabilityTable::fields(S &s, F &&f)
{
    f("caps", CapList{s.store});
    f("liveByBase", IndexPairs{s.liveByBase});
    f("freedByBase", IndexPairs{s.freedByBase});
    f("initBits", InitList{s.initBits});
    f("nextPid", s.nextPid);
    f("liveCount", s.liveCount);
}

json::Value
CapabilityTable::encode() const
{
    return json::encodeFields(*this);
}

bool
CapabilityTable::decode(const json::Value &v, std::string *why)
{
    clear();
    return json::decodeFields(v, *this, why);
}

} // namespace chex
