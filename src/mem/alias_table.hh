/**
 * @file
 * The shadow alias table (Section V-C): a 5-level hierarchical radix
 * structure — mirroring the in-memory page-table layout — that maps
 * each 8-byte-aligned virtual word holding a spilled pointer to the
 * PID of that pointer. A hardware walker traverses it on alias-cache
 * misses; the walk depth feeds the memory-traffic model. The page
 * granular "alias-hosting" filter (the paper's TLB / page-table
 * metadata bit) short-circuits lookups for pages that hold no
 * aliases at all.
 *
 * Built for sustained million-word spill/overwrite churn: every node
 * carries a live-slot counter, so erasing the last entry of a leaf
 * (set(addr, 0)) releases the leaf — and any interior nodes emptied
 * by the cascade — into a pooled free list instead of retaining them
 * forever. Node count is therefore a pure function of the live entry
 * set, and storageBytes() reports exactly the nodes a hardware table
 * would keep mapped (DESIGN §11).
 */

#ifndef CHEX_MEM_ALIAS_TABLE_HH
#define CHEX_MEM_ALIAS_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/fields.hh"

namespace chex
{

/** Result of a hardware alias-table walk. */
struct AliasWalkResult
{
    uint32_t pid = 0;        // 0 = no alias at that word
    unsigned levelsTouched = 0; // memory accesses performed
};

/**
 * Flat open-addressed page -> alias-count table backing the TLB
 * alias-hosting bit. pageHostsAliases() runs once per load (and once
 * per overwrite check on stores), so the lookup must be a handful of
 * cache-friendly probes rather than an unordered_map find.
 *
 * Linear probing over a power-of-two slot array. Decrementing a
 * count to zero leaves the slot in place as a tombstone (so probe
 * chains stay intact), but tombstones no longer linger until the
 * next grow: once half the occupied slots are dead the table
 * rehashes in place, dropping every tombstone and shrinking the
 * slot array when the live set no longer justifies its capacity —
 * page-churn workloads (a service mapping and unmapping request
 * arenas) keep probe chains short instead of degrading toward a
 * linear scan.
 */
class AliasPageCounts
{
  public:
    AliasPageCounts() : slots(InitialCap) {}

    /** True if @p page currently hosts at least one alias. */
    bool
    hosts(uint64_t page) const
    {
        const Slot &s = slots[findIndex(page)];
        return s.used && s.count != 0;
    }

    void
    increment(uint64_t page)
    {
        size_t idx = findIndex(page);
        if (!slots[idx].used) {
            if ((usedSlots + 1) * 2 > slots.size()) {
                rehash();
                idx = findIndex(page);
                if (slots[idx].used) { // page survived the rehash
                    ++slots[idx].count;
                    return;
                }
            }
            slots[idx].used = true;
            slots[idx].page = page;
            slots[idx].count = 0;
            ++usedSlots;
        } else if (slots[idx].count == 0) {
            --tombstoneSlots; // a dead page comes back to life
        }
        ++slots[idx].count;
    }

    void
    decrement(uint64_t page)
    {
        Slot &s = slots[findIndex(page)];
        if (!s.used || s.count == 0)
            return;
        if (--s.count == 0) {
            ++tombstoneSlots;
            maybePurge();
        }
    }

    void
    clear()
    {
        slots.assign(InitialCap, Slot{});
        usedSlots = 0;
        tombstoneSlots = 0;
    }

    /**
     * Set an exact count (snapshot restore). A zero count for a
     * never-seen page is a no-op: inserting it would plant a used
     * tombstone slot that eats probe-chain and rehash budget for a
     * page the table has no reason to know about.
     */
    void
    setCount(uint64_t page, uint32_t count)
    {
        size_t idx = findIndex(page);
        if (!slots[idx].used) {
            if (count == 0)
                return;
            if ((usedSlots + 1) * 2 > slots.size()) {
                rehash();
                idx = findIndex(page);
            }
            if (!slots[idx].used) {
                slots[idx].used = true;
                slots[idx].page = page;
                ++usedSlots;
            }
        } else if (slots[idx].count == 0 && count != 0) {
            --tombstoneSlots;
        } else if (slots[idx].count != 0 && count == 0) {
            ++tombstoneSlots;
        }
        slots[idx].count = count;
    }

    /** Number of pages with a nonzero count. */
    uint64_t
    livePages() const
    {
        uint64_t n = 0;
        for (const Slot &s : slots)
            if (s.used && s.count != 0)
                ++n;
        return n;
    }

    /** Visit every (page, count) pair with count != 0 (any order). */
    template <typename Fn>
    void
    forEachNonzero(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.used && s.count != 0)
                fn(s.page, s.count);
    }

    /** @{ @name Occupancy introspection (tests, accounting) */
    size_t capacity() const { return slots.size(); }
    size_t usedSlotCount() const { return usedSlots; }
    size_t tombstoneCount() const { return tombstoneSlots; }
    /** @} */

  private:
    struct Slot
    {
        uint64_t page = 0;
        uint32_t count = 0;
        bool used = false;
    };

    static constexpr size_t InitialCap = 64; // power of two
    /** Tombstone purges only fire past this many dead slots. */
    static constexpr size_t PurgeFloor = 32;

    size_t
    findIndex(uint64_t page) const
    {
        size_t mask = slots.size() - 1;
        size_t idx =
            static_cast<size_t>(page * 0x9e3779b97f4a7c15ull >> 32) &
            mask;
        while (slots[idx].used && slots[idx].page != page)
            idx = (idx + 1) & mask;
        return idx;
    }

    /**
     * Rebuild at a capacity sized for the *live* slot count —
     * tombstones die here, and a table whose live set shrank far
     * below its high-water mark shrinks back (never below
     * InitialCap). Serves as both grow (live load at 50% forces a
     * doubling) and purge/shrink.
     */
    void
    rehash()
    {
        size_t live = usedSlots - tombstoneSlots;
        size_t cap = InitialCap;
        while ((live + 1) * 2 > cap)
            cap *= 2;
        std::vector<Slot> old = std::move(slots);
        slots.assign(cap, Slot{});
        usedSlots = 0;
        tombstoneSlots = 0;
        for (const Slot &s : old) {
            if (!s.used || s.count == 0)
                continue;
            size_t idx = findIndex(s.page);
            slots[idx] = s;
            ++usedSlots;
        }
    }

    void
    maybePurge()
    {
        if (tombstoneSlots >= PurgeFloor &&
            tombstoneSlots * 2 >= usedSlots) {
            rehash();
        }
    }

    std::vector<Slot> slots;
    size_t usedSlots = 0;      // occupied slots, including tombstones
    size_t tombstoneSlots = 0; // occupied slots with count == 0
};

/** 5-level radix shadow table: VA[47:3] -> PID. */
class AliasTable
{
  public:
    AliasTable();
    ~AliasTable();

    /**
     * Record that the word at @p addr holds a spilled pointer with
     * identifier @p pid (0 erases). @p addr is word-aligned down.
     * Erasing the last entry of a leaf reclaims the leaf — and any
     * interior nodes the cascade empties — into the node pool.
     */
    void set(uint64_t addr, uint32_t pid);

    /** PID stored for the word at @p addr (0 if none). */
    uint32_t get(uint64_t addr) const;

    /** Full walk with per-level touch accounting. */
    AliasWalkResult walk(uint64_t addr) const;

    /**
     * The TLB alias-hosting bit: true if the 4 KiB page containing
     * @p addr *currently* hosts at least one spilled-pointer alias.
     * The bit is precise, not sticky: erasing the last alias on a
     * page (set(addr, 0)) clears it, so later lookups on that page
     * are filtered again — matching Section V-C, where the
     * page-table metadata bit reflects whether the page "hosts
     * aliases" and is maintained alongside the shadow table.
     */
    bool pageHostsAliases(uint64_t addr) const;

    /** Number of live (nonzero) alias entries. */
    uint64_t liveEntries() const { return _liveEntries; }

    /**
     * Modelled shadow storage: nodes currently reachable in the
     * tree x 4 KiB each. Honest under churn — reclaimed nodes are
     * not counted (they sit in the host-side pool; see
     * retainedBytes()). Every non-root node holds at least one
     * nonzero slot, so this is a pure function of the live set.
     */
    uint64_t storageBytes() const { return _nodeCount * NodeBytes; }

    /**
     * Host-side footprint: live nodes plus pool-retained nodes kept
     * for recycling. retainedBytes() - storageBytes() is the
     * reclaimed-but-not-released slack.
     */
    uint64_t
    retainedBytes() const
    {
        return (_nodeCount + pool.size()) * NodeBytes;
    }

    /** Nodes currently reachable in the tree (including the root). */
    uint64_t liveNodes() const { return _nodeCount; }

    /** Reclaimed nodes parked in the free-list pool. */
    uint64_t pooledNodes() const { return pool.size(); }

    /** Remove every entry; nodes are retained in the pool. */
    void clear();

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * The live entries as [word, pid] pairs in ascending word order
     * (word = VA[47:3]). Reclamation makes the tree — and the page
     * counts behind pageHostsAliases() — a pure function of the live
     * entries, so decoding rebuilds both through set(). Decoding
     * rejects a repeated or out-of-order word, a word past VA bit
     * 47, and PID 0, leaving the table cleared but usable. */
    json::Value encode() const;
    bool decode(const json::Value &v, std::string *why);
    /** @} */

    static constexpr unsigned Levels = 5;
    static constexpr unsigned NodeBytes = 4096;

  private:
    static constexpr unsigned BitsPerLevel = 9;
    static constexpr unsigned Fanout = 1u << BitsPerLevel;

    struct Node
    {
        // Interior levels hold child pointers; the leaf level holds
        // PIDs in the same storage (as integers). liveSlots counts
        // nonzero slots — host-side bookkeeping driving reclamation,
        // not part of the modelled 4 KiB node.
        std::array<uint64_t, Fanout> slots{};
        uint32_t liveSlots = 0;
    };

    static unsigned levelIndex(uint64_t addr, unsigned level);

    /** Shared radix traversal behind get()/walk(), memoized. */
    AliasWalkResult lookup(uint64_t word_addr) const;

    Node *root;
    uint64_t _nodeCount = 0;  // nodes reachable in the tree
    uint64_t _liveEntries = 0;
    AliasPageCounts aliasPages; // page -> live alias count
    std::vector<Node *> pool;   // reclaimed nodes awaiting reuse

    // One-entry memo over lookup(): alias-cache misses walk the same
    // word the subsequent get()/re-walk touches, and loads frequently
    // revisit the last spilled slot. Invalidated by any set() —
    // conservative but cheap. ~0 is never a word-aligned address.
    mutable uint64_t lastLookupWord = ~0ull;
    mutable AliasWalkResult lastLookup;

    Node *allocNode();
    void releaseNode(Node *node);
    void freeSubtree(Node *node, unsigned level);
    void encodeEntries(const Node *node, unsigned level, uint64_t word,
                       json::Value &out) const;
};

} // namespace chex

#endif // CHEX_MEM_ALIAS_TABLE_HH
