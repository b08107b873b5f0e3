#include "cache.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace chex
{

SetAssocCache::SetAssocCache(const std::string &name, unsigned num_sets,
                             unsigned ways)
    : _numSets(num_sets),
      _ways(ways),
      entries(static_cast<size_t>(num_sets) * ways),
      _stats(name),
      _hits(_stats.addScalar("hits", "lookups that hit")),
      _misses(_stats.addScalar("misses", "lookups that missed")),
      _evictions(_stats.addScalar("evictions", "capacity evictions")),
      _invalidations(
          _stats.addScalar("invalidations", "explicit invalidations"))
{
    chex_assert(num_sets > 0 && ways > 0, "bad cache geometry");
    if ((num_sets & (num_sets - 1)) == 0)
        _setMask = num_sets - 1;
    _stats.addFormula("missRate", "miss fraction", [this]() {
        return missRate();
    });
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

bool
SetAssocCache::access(uint64_t key)
{
    unsigned set = setIndex(key);
    Entry *base = &entries[static_cast<size_t>(set) * _ways];
    for (unsigned w = 0; w < _ways; ++w) {
        if (base[w].valid && base[w].key == key) {
            base[w].lastUse = ++useCounter;
            ++_hits;
            return true;
        }
    }
    ++_misses;
    return false;
}

bool
SetAssocCache::probe(uint64_t key) const
{
    unsigned set = setIndex(key);
    const Entry *base = &entries[static_cast<size_t>(set) * _ways];
    for (unsigned w = 0; w < _ways; ++w)
        if (base[w].valid && base[w].key == key)
            return true;
    return false;
}

std::optional<uint64_t>
SetAssocCache::insert(uint64_t key)
{
    unsigned set = setIndex(key);
    Entry *base = &entries[static_cast<size_t>(set) * _ways];
    Entry *lru = &base[0];
    for (unsigned w = 0; w < _ways; ++w) {
        Entry &e = base[w];
        if (e.valid && e.key == key) {
            e.lastUse = ++useCounter;
            return std::nullopt;
        }
        if (!e.valid) {
            lru = &e;
            break;
        }
        if (e.lastUse < lru->lastUse)
            lru = &e;
    }
    std::optional<uint64_t> evicted;
    if (lru->valid) {
        evicted = lru->key;
        ++_evictions;
    }
    lru->key = key;
    lru->valid = true;
    lru->lastUse = ++useCounter;
    return evicted;
}

bool
SetAssocCache::invalidate(uint64_t key)
{
    unsigned set = setIndex(key);
    Entry *base = &entries[static_cast<size_t>(set) * _ways];
    for (unsigned w = 0; w < _ways; ++w) {
        if (base[w].valid && base[w].key == key) {
            base[w].valid = false;
            ++_invalidations;
            return true;
        }
    }
    return false;
}

void
SetAssocCache::clear()
{
    for (auto &e : entries)
        e.valid = false;
}

unsigned
SetAssocCache::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : entries)
        if (e.valid)
            ++n;
    return n;
}

VictimAugmentedCache::VictimAugmentedCache(const std::string &name,
                                           unsigned num_sets,
                                           unsigned ways,
                                           unsigned victim_entries)
    : _main(name + ".main", num_sets, ways),
      _victim(name + ".victim", 1, victim_entries)
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
