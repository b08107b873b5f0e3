/**
 * @file
 * Paged backing store for the shadow capability table: fixed-size
 * pages of Capability slots indexed directly by PID. PIDs are
 * allocated densely from 1, so pid -> (page, slot) is two shifts and
 * a mask — no hashing, no per-entry heap node, no rehash pauses at
 * million-capability scale. Pages are recycled through a pool on
 * clear() (kremlin MemMapPool-style), so a campaign that resets the
 * table between processes never re-touches the allocator for pages
 * it already owns.
 *
 * A per-page presence bitmap distinguishes "slot never written" from
 * "capability with all-zero fields", which decode() needs when a
 * crafted snapshot carries sparse PID sets. It also gates every
 * read, so a page's slots sit in uninitialised storage: taking a
 * page writes only its bitmap, not 64 KiB of slots.
 */

#ifndef CHEX_CAP_PAGED_STORE_HH
#define CHEX_CAP_PAGED_STORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "cap/capability.hh"

namespace chex
{

/** PID-indexed paged array of Capability slots with pooled pages. */
class PagedCapabilityStore
{
  public:
    /** Slots per page: 4096 x 16-byte capabilities = 64 KiB. */
    static constexpr uint64_t PageSlots = 4096;
    /** Accounted bytes per allocated page (slots + presence bits). */
    static constexpr uint64_t PageBytes =
        PageSlots * 16 + PageSlots / 8;

    /** Lookup; nullptr if @p pid has no capability. */
    const Capability *
    find(Pid pid) const
    {
        uint64_t page = pid / PageSlots;
        if (page >= pages.size() || !pages[page])
            return nullptr;
        const Page &pg = *pages[page];
        uint64_t slot = pid % PageSlots;
        if (!(pg.present[slot / 64] & (1ull << (slot % 64))))
            return nullptr;
        return pg.slot(slot);
    }

    Capability *
    find(Pid pid)
    {
        return const_cast<Capability *>(
            static_cast<const PagedCapabilityStore *>(this)->find(
                pid));
    }

    /**
     * Insert or overwrite the capability for @p pid; returns a
     * reference to the stored slot. Slot references stay valid until
     * clear() — pages never move or deallocate while populated.
     */
    Capability &
    assign(Pid pid, const Capability &cap)
    {
        uint64_t page = pid / PageSlots;
        if (page >= pages.size())
            pages.resize(page + 1);
        if (!pages[page]) {
            if (!pool.empty()) {
                pages[page] = std::move(pool.back());
                pool.pop_back();
                pages[page]->reset();
            } else {
                pages[page] = std::make_unique_for_overwrite<Page>();
            }
            ++pagesInUse;
        }
        Page &pg = *pages[page];
        uint64_t slot = pid % PageSlots;
        uint64_t &word = pg.present[slot / 64];
        uint64_t bit = 1ull << (slot % 64);
        if (!(word & bit)) {
            word |= bit;
            ++count;
        }
        return *::new (pg.storage + slot * sizeof(Capability))
            Capability(cap);
    }

    /** Number of capabilities stored. */
    uint64_t size() const { return count; }

    /** Pages currently backing capabilities (excludes the pool). */
    uint64_t pageCount() const { return pagesInUse; }

    /** Bytes of page storage actually allocated for capabilities. */
    uint64_t storageBytes() const { return pagesInUse * PageBytes; }

    /** Drop every capability; pages are retained in the pool. */
    void
    clear()
    {
        for (auto &pg : pages) {
            if (pg)
                pool.push_back(std::move(pg));
        }
        pages.clear();
        count = 0;
        pagesInUse = 0;
    }

    /** Ascending-PID iteration over present capabilities. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (uint64_t page = 0; page < pages.size(); ++page) {
            if (!pages[page])
                continue;
            const Page &pg = *pages[page];
            for (uint64_t w = 0; w < PageSlots / 64; ++w) {
                uint64_t bits = pg.present[w];
                while (bits) {
                    uint64_t slot = w * 64 +
                                    static_cast<uint64_t>(
                                        __builtin_ctzll(bits));
                    bits &= bits - 1;
                    fn(static_cast<Pid>(page * PageSlots + slot),
                       *pg.slot(slot));
                }
            }
        }
    }

  private:
    struct Page
    {
        // Slot i is a Capability only while present bit i is set.
        alignas(Capability) std::byte storage[PageSlots *
                                              sizeof(Capability)];
        uint64_t present[PageSlots / 64] = {};

        const Capability *
        slot(uint64_t i) const
        {
            return std::launder(reinterpret_cast<const Capability *>(
                storage + i * sizeof(Capability)));
        }

        void
        reset()
        {
            for (uint64_t &w : present)
                w = 0;
        }
    };

    std::vector<std::unique_ptr<Page>> pages;
    std::vector<std::unique_ptr<Page>> pool;
    uint64_t count = 0;
    uint64_t pagesInUse = 0;
};

} // namespace chex

#endif // CHEX_CAP_PAGED_STORE_HH
