#include "cache.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace chex
{

SetAssocCache::SetAssocCache(unsigned num_sets, unsigned ways)
    : _numSets(num_sets), _ways(ways), slots(num_sets, ways)
{
    chex_assert(num_sets > 0 && ways > 0, "bad cache geometry");
    if ((num_sets & (num_sets - 1)) == 0)
        _setMask = num_sets - 1;
}

void
SetAssocCache::regStats(stats::StatGroup &group)
{
    group.addScalar("hits", "lookups that hit", _hits);
    group.addScalar("misses", "lookups that missed", _misses);
    group.addScalar("evictions", "capacity evictions", _evictions);
    group.addScalar("invalidations", "explicit invalidations",
                    _invalidations);
    group.addFormula("missRate", "miss fraction",
                     [this]() { return missRate(); });
}

unsigned
SetAssocCache::setIndex(uint64_t key) const
{
    if (_numSets == 1)
        return 0;
    // Mix the key so structured keys (sequential PIDs, stack
    // addresses) spread across sets.
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    unsigned mixed = static_cast<unsigned>(h >> 32);
    // x % n == x & (n-1) for power-of-two n: the mask path avoids an
    // integer divide on every lookup without changing the mapping.
    if (_setMask)
        return mixed & _setMask;
    return mixed % _numSets;
}

unsigned
SetAssocCache::wayOf(unsigned set, uint64_t key) const
{
    return slots.find(set, [key](const Entry &e) { return e.key == key; });
}

bool
SetAssocCache::access(uint64_t key)
{
    unsigned set = lastHit.set;
    unsigned way = lastHit.way;
    if (way == _ways || lastHit.key != key) {
        set = setIndex(key);
        way = wayOf(set, key);
        if (way == _ways) {
            ++_misses;
            return false;
        }
        lastHit = {key, set, way};
    }
    slots.at(set, way).lastUse = ++useCounter;
    ++_hits;
    return true;
}

bool
SetAssocCache::probe(uint64_t key) const
{
    return wayOf(setIndex(key), key) != _ways;
}

std::optional<uint64_t>
SetAssocCache::insert(uint64_t key)
{
    forgetHit();
    unsigned set = setIndex(key);
    // A hit is looked for only below the first invalid way, which
    // the key fills otherwise: a copy of it above a hole that an
    // invalidation left is not seen. A full set evicts its least
    // recently used way, the lowest one on a tie. Which slot holds a
    // key is snapshot state, so these choices are part of the format.
    unsigned way = slots.firstFree(set);
    Entry *entries = &slots.at(set, 0);
    unsigned lru = 0;
    for (unsigned w = 0; w < way; ++w) {
        if (entries[w].key == key) {
            entries[w].lastUse = ++useCounter;
            return std::nullopt;
        }
        if (entries[w].lastUse < entries[lru].lastUse)
            lru = w;
    }
    std::optional<uint64_t> evicted;
    if (way < _ways) {
        slots.setValid(set, way);
    } else {
        way = lru;
        evicted = entries[way].key;
        ++_evictions;
    }
    entries[way] = {key, ++useCounter};
    return evicted;
}

bool
SetAssocCache::invalidate(uint64_t key)
{
    unsigned set = setIndex(key);
    unsigned way = wayOf(set, key);
    if (way == _ways)
        return false;
    forgetHit();
    slots.resetValid(set, way);
    ++_invalidations;
    return true;
}

void
SetAssocCache::clear()
{
    forgetHit();
    slots.clear();
}

unsigned
SetAssocCache::occupancy() const
{
    return static_cast<unsigned>(slots.count());
}

VictimAugmentedCache::VictimAugmentedCache(unsigned num_sets,
                                           unsigned ways,
                                           unsigned victim_entries)
    : _main(num_sets, ways), _victim(1, victim_entries)
{
}

bool
VictimAugmentedCache::access(uint64_t key)
{
    if (_main.access(key)) {
        ++_hits;
        return true;
    }
    if (_victim.access(key)) {
        // Promote back into the main array; any displaced key drops
        // into the victim, swapping roles.
        _victim.invalidate(key);
        if (auto spilled = _main.insert(key))
            _victim.insert(*spilled);
        ++_hits;
        ++_victimHits;
        return true;
    }
    ++_misses;
    return false;
}

void
VictimAugmentedCache::insert(uint64_t key)
{
    if (auto spilled = _main.insert(key))
        _victim.insert(*spilled);
}

bool
VictimAugmentedCache::invalidate(uint64_t key)
{
    bool a = _main.invalidate(key);
    bool b = _victim.invalidate(key);
    return a || b;
}

void
VictimAugmentedCache::clear()
{
    _main.clear();
    _victim.clear();
}

} // namespace chex
