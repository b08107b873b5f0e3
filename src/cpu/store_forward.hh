/**
 * @file
 * Flat open-addressed store-to-load forwarding table. The timing
 * core consults it on every load and updates it on every store, so
 * it sits directly on the fetch->retire hot path; the previous
 * std::unordered_map spent the bulk of Core::addUop in hashing and
 * node chasing.
 *
 * Semantics are exactly those of the map it replaces:
 *  - insert() overwrites the ready cycle for an existing word and
 *    counts distinct words otherwise,
 *  - clear() drops everything (the core clears when size() exceeds
 *    its threshold, bounding the modelled store-queue history),
 * so simulated cycle assignments are bit-identical.
 *
 * Linear probing over a power-of-two slot array that starts at
 * 64 slots and doubles (rehashing) whenever an insertion would take
 * the load factor past 0.5, up to Capacity — so a short run never
 * allocates the slots a long one needs. clear() is O(1) and keeps
 * the slots: each carries an epoch stamp and is live only when its
 * stamp matches the current epoch.
 */

#ifndef CHEX_CPU_STORE_FORWARD_HH
#define CHEX_CPU_STORE_FORWARD_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/fields.hh"

namespace chex
{

/** Word-address -> data-ready-cycle forwarding table. */
class StoreForwardTable
{
  public:
    /** The largest slot count; at least 2x the core's clear
     * threshold, so the load stays at about 0.5 or below. */
    static constexpr size_t Capacity = 16384;
    /** The slot count a table starts with. */
    static constexpr size_t InitialSlots = 64;
    /** The core's clear threshold: it clears the table once it holds
     * more words than this, bounding the modelled store history. */
    static constexpr size_t MaxWords = 8192;

    StoreForwardTable() : slots(InitialSlots), mask(InitialSlots - 1) {}

    /** Ready cycle for @p word, or nullptr when not present. */
    const uint64_t *
    lookup(uint64_t word) const
    {
        const Slot &s = slots[find(word)];
        return s.epoch == epoch ? &s.ready : nullptr;
    }

    /** Insert or overwrite @p word's ready cycle. */
    void
    insert(uint64_t word, uint64_t ready)
    {
        size_t idx = find(word);
        if (slots[idx].epoch == epoch) {
            slots[idx].ready = ready;
            return;
        }
        if (2 * (_size + 1) > mask + 1 && mask + 1 < Capacity) {
            grow();
            idx = find(word);
        }
        slots[idx] = {word, ready, epoch};
        ++_size;
    }

    /** Number of distinct words present. */
    size_t size() const { return _size; }

    /** Number of slots allocated. */
    size_t slotCount() const { return slots.size(); }

    /** Drop every entry in O(1) by advancing the epoch. */
    void
    clear()
    {
        ++epoch;
        _size = 0;
    }

    /** Visit every live (word, ready) pair in unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots)
            if (s.epoch == epoch)
                fn(s.word, s.ready);
    }

    /** @{ @name Snapshot codec (base/fields.hh)
     * [word, ready] pairs in ascending word order. Decoding rejects a
     * repeated or out-of-order word and more than MaxWords words. */
    json::Value
    encode() const
    {
        std::vector<std::pair<uint64_t, uint64_t>> pairs;
        pairs.reserve(_size);
        forEach([&](uint64_t word, uint64_t ready) {
            pairs.emplace_back(word, ready);
        });
        std::sort(pairs.begin(), pairs.end());
        return json::encode(pairs);
    }

    bool
    decode(const json::Value &v, std::string *why)
    {
        if (v.isArray() && v.size() > MaxWords) {
            return json::reject(why, " holds more than " +
                                         std::to_string(MaxWords) +
                                         " words");
        }
        clear();
        return json::decodePairs<uint64_t, uint64_t>(
            v,
            [this](uint64_t word, uint64_t ready, std::string *) {
                insert(word, ready);
                return true;
            },
            why);
    }
    /** @} */

  private:
    struct Slot
    {
        uint64_t word = 0;
        uint64_t ready = 0;
        uint64_t epoch = 0; // live iff == table epoch (which starts at 1)
    };

    /** The slot holding @p word, or the free slot ending its probe
     * chain. */
    size_t
    find(uint64_t word) const
    {
        size_t idx =
            static_cast<size_t>(word * 0x9e3779b97f4a7c15ull >> 32) & mask;
        while (slots[idx].epoch == epoch && slots[idx].word != word)
            idx = (idx + 1) & mask;
        return idx;
    }

    /** Double the slot array, rehashing the live words. */
    void
    grow()
    {
        std::vector<Slot> old(2 * slots.size());
        old.swap(slots);
        mask = slots.size() - 1;
        for (const Slot &s : old)
            if (s.epoch == epoch)
                slots[find(s.word)] = s;
    }

    std::vector<Slot> slots; // fresh slots have epoch 0: never live
    size_t mask;             // slots.size() - 1
    uint64_t epoch = 1;
    size_t _size = 0;
};

} // namespace chex

#endif // CHEX_CPU_STORE_FORWARD_HH
