/**
 * @file
 * A generic key-based set-associative cache model with LRU
 * replacement. The same structure models the L1 instruction/data
 * caches and L2 (key = line address), the in-processor capability
 * cache (key = PID), the alias cache (key = word address), and — with
 * one set — any fully associative structure including victim caches.
 *
 * These are *presence* models: they track which keys are resident to
 * produce hit/miss timing and traffic, not data contents (contents
 * live in SparseMemory / shadow tables).
 */

#ifndef CHEX_MEM_CACHE_HH
#define CHEX_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <type_traits>

#include "base/fields.hh"
#include "base/slot_table.hh"
#include "base/stats.hh"

namespace chex
{

/** Set-associative LRU cache over opaque 64-bit keys. */
class SetAssocCache
{
  public:
    /**
     * @param num_sets Number of sets (1 = fully associative).
     * @param ways Associativity.
     */
    SetAssocCache(unsigned num_sets, unsigned ways);

    /**
     * Look up @p key, updating recency and hit/miss statistics.
     * @return true on hit.
     */
    bool access(uint64_t key);

    /** Look up without recording statistics or recency. */
    bool probe(uint64_t key) const;

    /**
     * Insert @p key (no-op if already present).
     * @return the evicted key, if the insertion displaced one.
     */
    std::optional<uint64_t> insert(uint64_t key);

    /** Remove @p key if present. @return true if it was resident. */
    bool invalidate(uint64_t key);

    /** Drop all entries (keeps statistics). */
    void clear();

    /** Number of resident entries. */
    unsigned occupancy() const;

    unsigned numSets() const { return _numSets; }
    unsigned ways() const { return _ways; }
    unsigned capacity() const { return _numSets * _ways; }

    uint64_t hits() const { return _hits.count(); }
    uint64_t misses() const { return _misses.count(); }
    uint64_t accesses() const { return hits() + misses(); }
    double
    missRate() const
    {
        uint64_t a = accesses();
        return a ? static_cast<double>(misses()) / a : 0.0;
    }

    /** Name the counters and the miss rate into @p group. */
    void regStats(stats::StatGroup &group);

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * Valid entries only, each with its flat index set * ways + way
     * — insert() prefers the first invalid slot in way order, so
     * which slots are valid (not just which keys are resident) is
     * timing state. Decoding rejects a geometry mismatch. */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("sets", json::Pinned{s._numSets});
        f("ways", json::Pinned{s._ways});
        f("useCounter", s.useCounter);
        f("entries", json::ValidSlots{s.slots, [](auto &e, auto &g) {
                                          g("key", e.key);
                                          g("lastUse", e.lastUse);
                                      }});
        f("hits", s._hits);
        f("misses", s._misses);
        f("evictions", s._evictions);
        f("invalidations", s._invalidations);
    }

    bool
    decode(const json::Value &v, std::string *why)
    {
        forgetHit();
        return json::decodeFields(v, *this, why);
    }
    /** @} */

  private:
    struct Entry
    {
        uint64_t key;
        uint64_t lastUse;
    };
    // Kept in uninitialised storage: a member initialiser would zero it.
    static_assert(std::is_trivially_default_constructible_v<Entry>);

    unsigned setIndex(uint64_t key) const;
    /** The lowest valid way of @p set holding @p key, or ways(). */
    unsigned wayOf(unsigned set, uint64_t key) const;
    void forgetHit() { lastHit.way = _ways; }

    unsigned _numSets;
    unsigned _ways;
    // Fast set-index path: when numSets is a power of two the modulo
    // in setIndex() reduces to this mask (bit-identical mapping);
    // zero means "not a power of two, use the divide".
    unsigned _setMask = 0;
    SlotTable<Entry> slots; // one row per set
    uint64_t useCounter = 0;
    // The last access() hit, so that a repeated key skips the set
    // search. Anything that changes which slot holds a key (insert,
    // invalidate, clear, decode) forgets it; way == ways() is none.
    struct
    {
        uint64_t key;
        unsigned set;
        unsigned way;
    } lastHit{0, 0, _ways};

    stats::Scalar _hits;
    stats::Scalar _misses;
    stats::Scalar _evictions;
    stats::Scalar _invalidations;
};

/**
 * A cache augmented with a small fully associative victim cache, as
 * used for the alias cache (256-entry 2-way + 32-entry victim,
 * Section V-C). Evictions from the main array fall into the victim;
 * a victim hit swaps the key back into the main array.
 */
class VictimAugmentedCache
{
  public:
    VictimAugmentedCache(unsigned num_sets, unsigned ways,
                         unsigned victim_entries);

    /** Look up in main then victim; promotes victim hits. */
    bool access(uint64_t key);

    /** Insert into the main array; spill eviction into the victim. */
    void insert(uint64_t key);

    /** Invalidate from both arrays. */
    bool invalidate(uint64_t key);

    void clear();

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    uint64_t victimHits() const { return _victimHits; }
    uint64_t accesses() const { return _hits + _misses; }
    double
    missRate() const
    {
        uint64_t a = accesses();
        return a ? static_cast<double>(_misses) / a : 0.0;
    }

    SetAssocCache &main() { return _main; }
    SetAssocCache &victim() { return _victim; }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh) */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("main", s._main);
        f("victim", s._victim);
        f("hits", s._hits);
        f("misses", s._misses);
        f("victimHits", s._victimHits);
    }
    /** @} */

  private:
    SetAssocCache _main;
    SetAssocCache _victim;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    uint64_t _victimHits = 0;
};

} // namespace chex

#endif // CHEX_MEM_CACHE_HH
