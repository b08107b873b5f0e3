/**
 * @file
 * The simulated heap: a classic (deliberately unhardened) free-list
 * allocator whose chunk metadata lives inline in simulated memory,
 * exactly like ptmalloc-era allocators. Because the fd links and
 * size fields are real bytes in the simulated address space,
 * How2Heap-style metadata-corruption exploits (fastbin dup, double
 * free, overlapping chunks, house-of-spirit invalid frees) actually
 * *work* against the insecure baseline — which is what gives the
 * security evaluation teeth.
 *
 * An optional ASan mode adds redzones around allocations, poisons
 * freed memory, and quarantines freed blocks, modelling the
 * AddressSanitizer runtime the paper compares against.
 */

#ifndef CHEX_HEAP_ALLOCATOR_HH
#define CHEX_HEAP_ALLOCATOR_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "base/range_set.hh"
#include "base/stats.hh"
#include "mem/sparse_memory.hh"

namespace chex
{

/** One metadata memory access performed by the allocator. */
struct MemTouch
{
    uint64_t addr = 0;
    bool isWrite = false;
    uint8_t size = 8;
};

/** ASan-model configuration. */
struct AsanConfig
{
    bool enabled = false;
    uint64_t redzoneBytes = 16;        // on each side
    uint64_t quarantineBytes = 1 << 20; // FIFO of freed blocks
};

/**
 * Free-list heap allocator over simulated memory.
 *
 * Chunk layout (addresses in simulated memory):
 *   chunk+0   prevSize (8 B)
 *   chunk+8   size | flags (8 B; bit0 = PREV_INUSE, bit1 = IN_USE)
 *   chunk+16  user data (fd link when free)
 * User pointers are chunk+16. Sizes are multiples of 16, minimum 32.
 */
class HeapAllocator
{
  public:
    HeapAllocator(SparseMemory &mem, uint64_t heap_base,
                  uint64_t heap_limit);

    /** Enable/disable the ASan model (affects new operations). */
    void setAsan(const AsanConfig &cfg) { asan = cfg; }
    const AsanConfig &asanConfig() const { return asan; }

    /**
     * Allocate @p size bytes. Returns the user address, or 0 on
     * failure. Metadata touches are appended to @p touches if given.
     */
    uint64_t malloc(uint64_t size, std::vector<MemTouch> *touches);

    /** calloc: allocate and zero n*size bytes. */
    uint64_t calloc(uint64_t n, uint64_t size,
                    std::vector<MemTouch> *touches);

    /** realloc with copy; free(ptr) when size==0. */
    uint64_t realloc(uint64_t ptr, uint64_t size,
                     std::vector<MemTouch> *touches);

    /**
     * Free a user pointer. Performs NO validation beyond reading the
     * header (by design): double frees corrupt the free list and
     * invalid frees enqueue fake chunks, as in classic allocators.
     */
    void free(uint64_t ptr, std::vector<MemTouch> *touches);

    /** Usable size of a live user pointer (reads its header). */
    uint64_t usableSize(uint64_t ptr) const;

    /** @{ @name ASan shadow-state queries (for the ASan variant) */
    /** True if any byte of [addr, addr+size) is poisoned. */
    bool isPoisoned(uint64_t addr, uint64_t size) const;
    /** Bytes of redzone + quarantine currently held. */
    uint64_t asanOverheadBytes() const;
    /** @} */

    /** @{ @name Introspection and statistics */
    uint64_t totalAllocations() const
    {
        return statTotalAllocs.count();
    }
    uint64_t liveAllocations() const { return liveCount; }
    uint64_t maxLiveAllocations() const { return maxLiveCount; }
    uint64_t bytesInUse() const { return liveBytes; }
    uint64_t peakBytesInUse() const { return peakLiveBytes; }
    uint64_t heapBreak() const { return top; }
    /** True if @p ptr is a live user pointer from this allocator. */
    bool isLiveUserPtr(uint64_t ptr) const;
    /** Name the allocator's counters into @p group. */
    void regStats(stats::StatGroup &group);
    /** @} */

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * Arena state only (bins, wilderness pointer, ASan shadow
     * ranges, quarantine, counters); chunk metadata lives in
     * simulated memory and travels with the SparseMemory pages. */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("top", s.top);
        f("bins", json::FixedLength{s.bins});
        f("poisonRanges", s.poisonRanges);
        f("quarantine", s.quarantine);
        f("quarantineHeld", s.quarantineHeld);
        f("redzoneHeld", s.redzoneHeld);
        f("liveCount", s.liveCount);
        f("maxLiveCount", s.maxLiveCount);
        f("liveBytes", s.liveBytes);
        f("peakLiveBytes", s.peakLiveBytes);
        f("totalAllocs", s.statTotalAllocs);
        f("totalFrees", s.statTotalFrees);
        f("failedAllocs", s.statFailedAllocs);
        f("binReuse", s.statBinReuse);
        f("bumpAllocs", s.statBumpAllocs);
    }
    /** @} */

    static constexpr uint64_t HeaderBytes = 16;
    static constexpr uint64_t MinChunk = 32;
    static constexpr uint64_t FlagPrevInUse = 1;
    static constexpr uint64_t FlagInUse = 2;
    static constexpr uint64_t FlagMask = 0xf;

  private:
    /** Size-class index for a chunk size. */
    unsigned binIndex(uint64_t chunk_size) const;

    uint64_t chunkSizeFor(uint64_t user_size) const;
    uint64_t readSizeField(uint64_t chunk) const;
    void writeSizeField(uint64_t chunk, uint64_t size_and_flags,
                        std::vector<MemTouch> *touches);

    void poison(uint64_t addr, uint64_t len);
    void unpoison(uint64_t addr, uint64_t len);
    void drainQuarantine();

    uint64_t allocateChunk(uint64_t chunk_size,
                           std::vector<MemTouch> *touches);

    SparseMemory &mem;
    uint64_t heapBase;
    uint64_t heapLimit;
    uint64_t top;  // wilderness pointer (bump allocation frontier)

    static constexpr unsigned NumBins = 64;
    // Bin heads live host-side (the "arena"); fd links live in
    // simulated memory where programs can corrupt them.
    uint64_t bins[NumBins] = {};

    AsanConfig asan;
    // Flat sorted poison ranges: this sits on the free path of every
    // poisoning variant, where the node-per-range std::map paid a
    // heap allocation and a pointer chase per free.
    RangeSet poisonRanges;
    struct QuarantineEntry
    {
        uint64_t chunk;
        uint64_t chunkSize;

        /** Snapshot form: [chunk, chunkSize]. */
        json::Value
        encode() const
        {
            return json::encode(std::pair(chunk, chunkSize));
        }
        bool
        decode(const json::Value &v, std::string *why)
        {
            auto pair = std::tie(chunk, chunkSize);
            return json::decode(v, pair, why);
        }
    };
    std::deque<QuarantineEntry> quarantine;
    uint64_t quarantineHeld = 0;
    uint64_t redzoneHeld = 0;

    uint64_t liveCount = 0;
    uint64_t maxLiveCount = 0;
    uint64_t liveBytes = 0;
    uint64_t peakLiveBytes = 0;

    stats::Scalar statTotalAllocs;
    stats::Scalar statTotalFrees;
    stats::Scalar statFailedAllocs;
    stats::Scalar statBinReuse;
    stats::Scalar statBumpAllocs;
};

} // namespace chex

#endif // CHEX_HEAP_ALLOCATOR_HH
