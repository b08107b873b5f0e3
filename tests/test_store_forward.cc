/**
 * @file
 * Equivalence tests for the flat store-to-load forwarding table
 * against the std::unordered_map it replaced in Core. The timing
 * model's cycle assignments depend on exact hit/miss/overwrite
 * behavior, so the flat table must match the map bit-for-bit —
 * including across the core's size-triggered clear.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>

#include "base/random.hh"
#include "cpu/store_forward.hh"

namespace chex
{
namespace
{

TEST(StoreForwardTable, BasicInsertLookupOverwrite)
{
    StoreForwardTable t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.lookup(42), nullptr);

    t.insert(42, 100);
    ASSERT_NE(t.lookup(42), nullptr);
    EXPECT_EQ(*t.lookup(42), 100u);
    EXPECT_EQ(t.size(), 1u);

    // Overwrite does not change the distinct-word count.
    t.insert(42, 250);
    EXPECT_EQ(*t.lookup(42), 250u);
    EXPECT_EQ(t.size(), 1u);

    t.insert(43, 7);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.lookup(44), nullptr);
}

TEST(StoreForwardTable, ClearDropsEverything)
{
    StoreForwardTable t;
    for (uint64_t w = 0; w < 100; ++w)
        t.insert(w, w * 3);
    EXPECT_EQ(t.size(), 100u);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    for (uint64_t w = 0; w < 100; ++w)
        EXPECT_EQ(t.lookup(w), nullptr);

    // The table is fully usable after an epoch-based clear, and
    // repeated clears keep working.
    t.insert(5, 9);
    ASSERT_NE(t.lookup(5), nullptr);
    EXPECT_EQ(*t.lookup(5), 9u);
    t.clear();
    EXPECT_EQ(t.lookup(5), nullptr);
}

TEST(StoreForwardTable, CollidingWordsProbeCorrectly)
{
    // Words spaced by Capacity share low index bits under many hash
    // schemes; regardless of the hash, inserting many keys forces
    // probe chains. Every key must remain individually addressable.
    StoreForwardTable t;
    constexpr uint64_t stride = StoreForwardTable::Capacity;
    for (uint64_t i = 0; i < 64; ++i)
        t.insert(i * stride, i + 1);
    for (uint64_t i = 0; i < 64; ++i) {
        const uint64_t *r = t.lookup(i * stride);
        ASSERT_NE(r, nullptr);
        EXPECT_EQ(*r, i + 1);
    }
    EXPECT_EQ(t.size(), 64u);
}

TEST(StoreForwardTable, MatchesReferenceMapUnderRandomTraffic)
{
    // Drive the flat table and a reference unordered_map with the
    // same randomized insert/lookup stream, replicating Core's
    // policy: insert on store, clear both when size exceeds the
    // core's threshold. Any divergence would shift simulated cycles.
    StoreForwardTable flat;
    std::unordered_map<uint64_t, uint64_t> ref;
    Random rng(12345);

    constexpr size_t ClearThreshold = 8192;
    unsigned clears = 0;

    for (int op = 0; op < 200000; ++op) {
        // Skewed word space: hot words collide often (overwrites),
        // cold words grow the table toward the clear threshold.
        uint64_t word = rng.chance(0.3) ? rng.uniform(0, 63)
                                        : rng.uniform(0, 1u << 20);
        if (rng.chance(0.5)) {
            uint64_t ready = rng.next();
            flat.insert(word, ready);
            ref[word] = ready;
            if (flat.size() > ClearThreshold) {
                flat.clear();
                ref.clear();
                ++clears;
            }
        } else {
            const uint64_t *got = flat.lookup(word);
            auto it = ref.find(word);
            if (it == ref.end()) {
                EXPECT_EQ(got, nullptr) << "word " << word;
            } else {
                ASSERT_NE(got, nullptr) << "word " << word;
                EXPECT_EQ(*got, it->second) << "word " << word;
            }
        }
        EXPECT_EQ(flat.size(), ref.size());
    }
    // The stream must actually cross the clear threshold for this
    // test to cover the epoch path.
    EXPECT_GT(clears, 0u);

    // Final sweep: every surviving entry agrees both ways.
    size_t visited = 0;
    flat.forEach([&](uint64_t word, uint64_t ready) {
        auto it = ref.find(word);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(it->second, ready);
        ++visited;
    });
    EXPECT_EQ(visited, ref.size());
}

TEST(StoreForwardTable, GrowsByDoublingAndMatchesMap)
{
    // Distinct words, one at a time, through every growth step from
    // the initial 64 slots to Capacity and past the core's clear
    // threshold; the whole table is compared with the map after each
    // insertion that grew it. Then clear() keeps the slots, and the
    // table refills without growing.
    StoreForwardTable t;
    std::unordered_map<uint64_t, uint64_t> ref;
    auto expect_same = [&] {
        ASSERT_EQ(t.size(), ref.size());
        for (const auto &[word, ready] : ref) {
            const uint64_t *got = t.lookup(word);
            ASSERT_NE(got, nullptr) << "word " << word;
            ASSERT_EQ(*got, ready) << "word " << word;
        }
        size_t visited = 0;
        t.forEach([&](uint64_t word, uint64_t ready) {
            ASSERT_EQ(ref.at(word), ready);
            ++visited;
        });
        ASSERT_EQ(visited, ref.size());
    };

    EXPECT_EQ(t.slotCount(), StoreForwardTable::InitialSlots);
    Random rng(99);
    unsigned growths = 0;
    const size_t words = StoreForwardTable::MaxWords + 1000;
    for (uint64_t n = 1; n <= words; ++n) {
        uint64_t word = rng.next() >> 20;
        while (ref.count(word))
            word = rng.next() >> 20;
        size_t before = t.slotCount();
        t.insert(word, n);
        ref[word] = n;
        // Slots double exactly when the load would pass 0.5.
        size_t want = std::max<size_t>(StoreForwardTable::InitialSlots,
                                       std::bit_ceil(2 * n));
        ASSERT_EQ(t.slotCount(),
                  std::min(want, StoreForwardTable::Capacity))
            << n;
        // An overwrite never grows the table.
        t.insert(word, n + 1);
        ref[word] = n + 1;
        if (t.slotCount() != before) {
            ++growths;
            expect_same();
        }
    }
    EXPECT_EQ(growths, 8u); // 64 -> 128 -> ... -> 16384
    expect_same();

    t.clear();
    ref.clear();
    EXPECT_EQ(t.slotCount(), StoreForwardTable::Capacity);
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.lookup(rng.next() >> 20), nullptr);
    for (uint64_t n = 0; n < 500; ++n) {
        uint64_t word = rng.uniform(0, 700);
        t.insert(word, n);
        ref[word] = n;
    }
    EXPECT_EQ(t.slotCount(), StoreForwardTable::Capacity);
    expect_same();
}

} // namespace
} // namespace chex
