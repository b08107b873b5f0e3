/**
 * @file
 * Alias-subsystem scale suite for the reclaiming shadow alias table
 * (DESIGN §11), in the style of test_cap_store: a randomized
 * equivalence run drives the radix table and a dumb
 * std::map<word, pid> oracle through the same tens of thousands of
 * operations — set/get/walk/page-filter/clear — asserting identical
 * results at every step, exact node-count accounting (storageBytes
 * must equal the oracle-derived distinct-prefix count through
 * arbitrary reclamation), and byte-identical chex-snapshot-v2
 * documents at checkpoints, including a mid-stream save/restore.
 * Also pins pooled-node recycling, the fill-then-clear reclamation
 * floor, the restore-validation bug tail (repeated or unsorted
 * words, non-PID payloads), the AliasPageCounts
 * tombstone-purge/shrink policy and its setCount(page, 0) fix, and
 * the clearAliasRange end-of-address-space overflow fix.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/json.hh"
#include "base/random.hh"
#include "mem/alias_table.hh"
#include "tracker/pointer_tracker.hh"
#include "tracker/rules.hh"

namespace chex
{
namespace
{

/** decode() without the problem text. */
template <typename T>
bool
restore(T &target, const json::Value &doc)
{
    std::string why;
    return target.decode(doc, &why);
}

/** Word index VA[47:3], mirroring AliasTable::levelIndex. */
uint64_t
wordIndex(uint64_t addr)
{
    return (addr >> 3) & ((1ull << 45) - 1);
}

/**
 * Nodes a reclaiming table must hold for @p live: the root plus one
 * node per distinct word-index prefix at each of the four lower
 * levels (9 bits per level, leaves keyed by word >> 9).
 */
uint64_t
expectedNodes(const std::map<uint64_t, uint32_t> &live)
{
    std::set<uint64_t> l1, l2, l3, leaves;
    for (const auto &kv : live) {
        uint64_t w = wordIndex(kv.first);
        l1.insert(w >> 36);
        l2.insert(w >> 27);
        l3.insert(w >> 18);
        leaves.insert(w >> 9);
    }
    return 1 + l1.size() + l2.size() + l3.size() + leaves.size();
}

/** Rebuild a fresh table holding exactly the oracle's live set. */
void
rebuildFromModel(const std::map<uint64_t, uint32_t> &live,
                 AliasTable &out)
{
    out.clear();
    for (const auto &[addr, pid] : live)
        out.set(addr, pid);
}

/**
 * Random word-aligned address mixing dense pages (shared leaves)
 * with scattered draws across 1 TiB (distinct subtrees).
 */
uint64_t
drawAddr(Random &rng)
{
    if (rng.chance(0.6)) {
        // One of 8 dense 4 KiB pages.
        return 0x10000ull + rng.uniform(0, 7) * 4096 +
               rng.uniform(0, 511) * 8;
    }
    return 0x100000000ull + (rng.uniform(0, (1ull << 37) - 1) << 3);
}

TEST(AliasStore, RandomizedEquivalenceVsMapModel)
{
    AliasTable table;
    std::map<uint64_t, uint32_t> model;
    std::unordered_map<uint64_t, uint32_t> pageCounts;
    Random rng(0xa11a5);

    auto modelSet = [&](uint64_t addr, uint32_t pid) {
        addr &= ~7ull;
        uint64_t page = addr / 4096;
        auto it = model.find(addr);
        uint32_t was = it == model.end() ? 0 : it->second;
        if (was == pid)
            return;
        if (was == 0 && pid != 0)
            ++pageCounts[page];
        else if (was != 0 && pid == 0)
            --pageCounts[page];
        if (pid == 0)
            model.erase(addr);
        else
            model[addr] = pid;
    };
    auto modelHosts = [&](uint64_t addr) {
        auto it = pageCounts.find(addr / 4096);
        return it != pageCounts.end() && it->second != 0;
    };

    constexpr int Ops = 60000;
    constexpr int CheckpointEvery = 6000;
    for (int op = 0; op < Ops; ++op) {
        uint64_t r = rng.uniform(0, 99);
        if (r < 55) {
            // Spill, overwrite, or erase (pid 0 one time in four).
            uint64_t addr = drawAddr(rng);
            auto pid = static_cast<uint32_t>(rng.uniform(0, 3) == 0
                                                 ? 0
                                                 : rng.uniform(1, 9));
            table.set(addr, pid);
            modelSet(addr, pid);
        } else if (r < 75) {
            uint64_t addr = drawAddr(rng);
            auto it = model.find(addr & ~7ull);
            uint32_t want = it == model.end() ? 0 : it->second;
            ASSERT_EQ(table.get(addr), want) << std::hex << addr;
        } else if (r < 90) {
            uint64_t addr = drawAddr(rng);
            auto it = model.find(addr & ~7ull);
            uint32_t want = it == model.end() ? 0 : it->second;
            AliasWalkResult w = table.walk(addr);
            ASSERT_EQ(w.pid, want) << std::hex << addr;
            ASSERT_LE(w.levelsTouched, AliasTable::Levels);
            if (want != 0) {
                ASSERT_EQ(w.levelsTouched, AliasTable::Levels);
            }
        } else if (r < 99) {
            uint64_t addr = drawAddr(rng);
            ASSERT_EQ(table.pageHostsAliases(addr), modelHosts(addr))
                << std::hex << addr;
        } else {
            table.clear();
            model.clear();
            pageCounts.clear();
        }

        if ((op + 1) % CheckpointEvery == 0) {
            ASSERT_EQ(table.liveEntries(), model.size());
            // Exact node accounting: reclamation keeps the node
            // count a pure function of the live set.
            ASSERT_EQ(table.storageBytes(),
                      expectedNodes(model) * AliasTable::NodeBytes);
            ASSERT_LE(table.storageBytes(), table.retainedBytes());

            // The serialized document must equal the one a fresh
            // table rebuilt from the oracle produces: structure
            // carries no allocation-history residue anymore.
            json::Value doc = table.encode();
            AliasTable fresh;
            rebuildFromModel(model, fresh);
            ASSERT_EQ(doc.dump(0), fresh.encode().dump(0));

            // Mid-stream restore round-trip.
            AliasTable restored;
            ASSERT_TRUE(restore(restored, doc));
            ASSERT_EQ(restored.encode().dump(0), doc.dump(0));
            ASSERT_EQ(restored.storageBytes(), table.storageBytes());
        }
    }
}

TEST(AliasStore, FillThenClearReturnsStorage)
{
    // The acceptance floor for reclamation: after a fill-then-clear
    // cycle, storageBytes() is back within 10% of its pre-churn
    // value. The reclaiming table does better — it returns exactly
    // to the root-only floor.
    AliasTable table;
    Random rng(7);
    uint64_t before = table.storageBytes();
    std::vector<uint64_t> words;
    for (int i = 0; i < 50000; ++i) {
        uint64_t addr = drawAddr(rng);
        if (table.get(addr) == 0)
            words.push_back(addr & ~7ull);
        table.set(addr, 5);
    }
    EXPECT_GT(table.storageBytes(), before * 100);
    for (uint64_t addr : words)
        table.set(addr, 0);
    EXPECT_EQ(table.liveEntries(), 0u);
    EXPECT_LE(table.storageBytes(),
              before + before / 10); // within 10% of pre-churn
    EXPECT_EQ(table.storageBytes(),
              uint64_t{AliasTable::NodeBytes}); // root only, exactly
}

TEST(AliasStore, ChurnKeepsShadowStorageBounded)
{
    // Sustained overwrite churn at a constant live size: the
    // pre-reclamation table grew monotonically (nodes were never
    // freed), so storage was proportional to *total* distinct
    // addresses ever spilled; the reclaiming table stays
    // proportional to the live set.
    AliasTable table;
    Random rng(11);
    std::vector<uint64_t> live;
    uint64_t bump = 0x200000000ull;
    for (int i = 0; i < 1000; ++i) {
        live.push_back(bump);
        table.set(bump, 3);
        bump += 1 << 20; // one leaf per word: worst-case spread
    }
    uint64_t filled = table.storageBytes();
    for (int i = 0; i < 20000; ++i) {
        size_t idx = rng.uniform(0, live.size() - 1);
        table.set(live[idx], 0);
        live[idx] = bump;
        table.set(bump, 3);
        bump += 1 << 20;
    }
    EXPECT_EQ(table.liveEntries(), 1000u);
    // 21000 distinct spill sites have passed through; bounded means
    // we stay at live-set scale, not total-history scale.
    EXPECT_LE(table.storageBytes(), 2 * filled);
    EXPECT_GT(table.pooledNodes(), 0u);
}

TEST(AliasStore, PooledNodesAreRecycled)
{
    AliasTable table;
    table.set(0x10000000, 1);
    table.set(0x20000000, 2);
    table.set(0x30000000, 3);
    uint64_t retained = table.retainedBytes();
    table.set(0x20000000, 0); // frees a subtree into the pool
    EXPECT_GT(table.pooledNodes(), 0u);
    EXPECT_EQ(table.retainedBytes(), retained);
    uint64_t pooled = table.pooledNodes();
    // Re-spilling down the reclaimed path needs exactly the nodes
    // the erase released: all of them must come from the pool.
    table.set(0x20000000, 4);
    EXPECT_LT(table.pooledNodes(), pooled);
    EXPECT_EQ(table.retainedBytes(), retained);
    EXPECT_EQ(table.get(0x20000000), 4u);
}

TEST(AliasStore, SnapshotRoundTripAfterChurnThenReclaim)
{
    AliasTable table;
    Random rng(23);
    std::vector<uint64_t> words;
    for (int i = 0; i < 20000; ++i) {
        uint64_t addr = drawAddr(rng);
        if (table.get(addr) == 0)
            words.push_back(addr & ~7ull);
        table.set(addr, static_cast<uint32_t>(rng.uniform(1, 1000)));
    }
    // Heavy reclaim: erase three quarters of everything ever set.
    for (size_t i = 0; i < words.size(); ++i)
        if (i % 4 != 0)
            table.set(words[i], 0);

    json::Value doc = table.encode();
    AliasTable restored;
    ASSERT_TRUE(restore(restored, doc));
    EXPECT_EQ(restored.encode().dump(0), doc.dump(0));
    EXPECT_EQ(restored.liveEntries(), table.liveEntries());
    EXPECT_EQ(restored.storageBytes(), table.storageBytes());
    for (size_t i = 0; i < words.size(); i += 97) {
        EXPECT_EQ(restored.get(words[i]), table.get(words[i]));
        EXPECT_EQ(restored.pageHostsAliases(words[i]),
                  table.pageHostsAliases(words[i]));
    }
}

/** Parse @p text, restore it into a table holding one entry, and
 * expect a rejection that leaves the table empty and usable. */
void
expectRejected(const char *text)
{
    SCOPED_TRACE(text);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(text, doc, &err)) << err;
    AliasTable table;
    table.set(0x8000, 9);
    EXPECT_FALSE(restore(table, doc));
    // No leak, no poisoned state: the table is empty and fully
    // usable, and clear() (inside decode and here) is safe.
    EXPECT_EQ(table.liveEntries(), 0u);
    EXPECT_FALSE(table.pageHostsAliases(0x8000));
    EXPECT_EQ(table.storageBytes(), uint64_t{AliasTable::NodeBytes});
    table.set(0x9000, 4);
    EXPECT_EQ(table.get(0x9000), 4u);
    table.clear();
    EXPECT_EQ(table.storageBytes(), uint64_t{AliasTable::NodeBytes});
}

TEST(AliasStore, RestoreRejectsRepeatedOrUnsortedWords)
{
    // The writer emits each live word once, in ascending order, so
    // a list that repeats or reorders words cannot have come from
    // it; rebuilding through set() would silently keep the last.
    expectRejected("[[4096, 42], [4096, 43]]");
    expectRejected("[[4097, 42], [4096, 43]]");
    // A word past VA bit 47 would alias a lower one in the tree.
    expectRejected("[[35184372088832, 42]]");

    // The same entries in order restore, and the tree and page bits
    // are rebuilt from them.
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse("[[4096, 42], [4097, 43]]", doc, &err))
        << err;
    AliasTable table;
    ASSERT_TRUE(restore(table, doc));
    EXPECT_EQ(table.get(4096 << 3), 42u);
    EXPECT_EQ(table.get(4097 << 3), 43u);
    EXPECT_EQ(table.liveEntries(), 2u);
    EXPECT_TRUE(table.pageHostsAliases(4096 << 3));
    EXPECT_EQ(table.storageBytes(), 5 * uint64_t{AliasTable::NodeBytes});
    EXPECT_EQ(table.encode().dump(0), doc.dump(0));
}

TEST(AliasStore, RestoreRejectsDuplicateSlotIndices)
{
    // Regression: a malformed snapshot repeating a slot index made
    // the pre-reclamation restore overwrite the child pointer with a
    // fresh node, orphaning the first child — restore reported
    // success, the node count stayed inflated, and the next clear()
    // died on the "alias table leak" assert. A leaf slot is a word
    // of the flat v2 list; repeating one anywhere is rejected.
    expectRejected("[[4096, 42], [4096, 42]]");
    expectRejected("[[1, 7], [4096, 42], [8192, 3], [8192, 4]]");
}

TEST(AliasStore, RestoreRejectsNonPidLeafPayloads)
{
    // Entries must carry nonzero 32-bit PIDs: a wider value would be
    // truncated by get(), and a zero is never written.
    expectRejected("[[4096, 4294967296]]");
    expectRejected("[[4096, 0]]");
    expectRejected("[[4096, -1]]");
    expectRejected("[[4096]]");
}

TEST(AliasPageCountsTest, SetCountZeroForUnknownPageIsNoop)
{
    // Regression: the restore path used to insert a used slot with
    // count 0 — a tombstone — for a page the table had never seen.
    AliasPageCounts counts;
    counts.setCount(0x1234, 0);
    EXPECT_EQ(counts.usedSlotCount(), 0u);
    EXPECT_EQ(counts.tombstoneCount(), 0u);
    EXPECT_FALSE(counts.hosts(0x1234));

    // Zeroing a page that exists still works and is tracked as a
    // tombstone.
    counts.setCount(0x1234, 3);
    EXPECT_EQ(counts.usedSlotCount(), 1u);
    counts.setCount(0x1234, 0);
    EXPECT_FALSE(counts.hosts(0x1234));
    EXPECT_EQ(counts.tombstoneCount(), 1u);
}

TEST(AliasPageCountsTest, TombstonePurgeAndShrink)
{
    // Page-churn workload: map many pages, then unmap them all. The
    // pre-reclamation table kept every tombstone until the next
    // grow, so probe chains decayed and capacity never came back;
    // now dead slots are purged once they reach half the occupancy
    // and the slot array shrinks to match the live set.
    AliasPageCounts counts;
    constexpr uint64_t N = 10000;
    for (uint64_t p = 0; p < N; ++p)
        counts.increment(p);
    EXPECT_EQ(counts.livePages(), N);
    size_t grown = counts.capacity();
    EXPECT_GE(grown, 2 * N);

    for (uint64_t p = 0; p < N; ++p)
        counts.decrement(p);
    EXPECT_EQ(counts.livePages(), 0u);
    // Tombstones purged, capacity shrunk back to the floor.
    EXPECT_LT(counts.tombstoneCount(), 32u);
    EXPECT_EQ(counts.capacity(), 64u);

    // The table remains fully usable after shrinking.
    for (uint64_t p = 0; p < 100; ++p)
        counts.increment(p * 977);
    for (uint64_t p = 0; p < 100; ++p)
        EXPECT_TRUE(counts.hosts(p * 977));
    EXPECT_EQ(counts.livePages(), 100u);
}

TEST(AliasPageCountsTest, RandomizedChurnMatchesReferenceCounts)
{
    AliasPageCounts counts;
    std::unordered_map<uint64_t, uint32_t> model;
    Random rng(31);
    for (int op = 0; op < 50000; ++op) {
        uint64_t page = rng.uniform(0, 499);
        if (rng.chance(0.5)) {
            counts.increment(page);
            ++model[page];
        } else {
            counts.decrement(page);
            auto it = model.find(page);
            if (it != model.end() && it->second > 0)
                --it->second;
        }
        if (op % 997 == 0) {
            for (uint64_t p = 0; p < 500; p += 17) {
                auto it = model.find(p);
                bool want = it != model.end() && it->second != 0;
                ASSERT_EQ(counts.hosts(p), want) << p;
            }
        }
    }
    uint64_t live = 0;
    for (const auto &[page, count] : model)
        if (count != 0)
            ++live;
    EXPECT_EQ(counts.livePages(), live);
}

TEST(TrackerAliasRange, ClearAliasRangeSaturatesAtAddressSpaceTop)
{
    // Regression: `a < addr + len` wrapped when the range touched
    // the top of the 64-bit address space, so the loop cleared
    // nothing at all.
    AliasTable aliases;
    SpeculativePointerTracker tracker(RuleDatabase::tableI(), aliases);
    uint64_t top = ~0ull & ~7ull; // 0xfffffffffffffff8
    tracker.seedAlias(top, 7);
    tracker.seedAlias(top - 8, 8);
    ASSERT_EQ(aliases.get(top), 7u);

    tracker.clearAliasRange(top - 8, 0x100); // end wraps past zero
    EXPECT_EQ(aliases.get(top), 0u);
    EXPECT_EQ(aliases.get(top - 8), 0u);
}

TEST(TrackerAliasRange, ClearAliasRangeBoundsAreExact)
{
    AliasTable aliases;
    SpeculativePointerTracker tracker(RuleDatabase::tableI(), aliases);
    tracker.seedAlias(0x1000, 1);
    tracker.seedAlias(0x1008, 2);
    tracker.seedAlias(0x1010, 3);
    tracker.clearAliasRange(0x1000, 0x10);
    EXPECT_EQ(aliases.get(0x1000), 0u);
    EXPECT_EQ(aliases.get(0x1008), 0u);
    EXPECT_EQ(aliases.get(0x1010), 3u); // one past the range: kept

    // A zero-length range clears nothing — including the word the
    // unaligned start address rounds down into.
    tracker.clearAliasRange(0x1014, 0);
    EXPECT_EQ(aliases.get(0x1010), 3u);

    // An unaligned tail still clears the word it lands in.
    tracker.clearAliasRange(0x1010, 1);
    EXPECT_EQ(aliases.get(0x1010), 0u);
}

} // namespace
} // namespace chex
