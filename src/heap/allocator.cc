#include "allocator.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace chex
{

HeapAllocator::HeapAllocator(SparseMemory &mem_in, uint64_t heap_base,
                             uint64_t heap_limit)
    : mem(mem_in),
      heapBase(heap_base),
      heapLimit(heap_limit),
      top(heap_base)
{
    chex_assert(heap_base < heap_limit, "bad heap range");
}

void
HeapAllocator::regStats(stats::StatGroup &group)
{
    group.addScalar("totalAllocs", "successful allocations",
                    statTotalAllocs);
    group.addScalar("totalFrees", "free calls", statTotalFrees);
    group.addScalar("failedAllocs", "failed allocations",
                    statFailedAllocs);
    group.addScalar("binReuse", "allocations served from bins",
                    statBinReuse);
    group.addScalar("bumpAllocs", "allocations from wilderness",
                    statBumpAllocs);
}

unsigned
HeapAllocator::binIndex(uint64_t chunk_size) const
{
    // 16-byte-granular exact bins up to 512 bytes, then one bin per
    // power of two. Chunk sizes below MinChunk never occur.
    if (chunk_size <= 512)
        return static_cast<unsigned>(chunk_size / 16); // 2..32
    unsigned lg = floorLog2(chunk_size);               // >= 9
    return std::min(33u + (lg - 9), NumBins - 1);
}

uint64_t
HeapAllocator::chunkSizeFor(uint64_t user_size) const
{
    uint64_t gross = user_size + HeaderBytes;
    if (asan.enabled)
        gross += 2 * asan.redzoneBytes;
    return std::max<uint64_t>(roundUp(gross, 16), MinChunk);
}

uint64_t
HeapAllocator::readSizeField(uint64_t chunk) const
{
    return mem.read(chunk + 8, 8);
}

void
HeapAllocator::writeSizeField(uint64_t chunk, uint64_t size_and_flags,
                              std::vector<MemTouch> *touches)
{
    mem.write(chunk + 8, size_and_flags, 8);
    if (touches)
        touches->push_back({chunk + 8, true, 8});
}

void
HeapAllocator::poison(uint64_t addr, uint64_t len)
{
    poisonRanges.add(addr, addr + len);
}

void
HeapAllocator::unpoison(uint64_t addr, uint64_t len)
{
    poisonRanges.subtract(addr, addr + len);
}

bool
HeapAllocator::isPoisoned(uint64_t addr, uint64_t size) const
{
    return poisonRanges.overlaps(addr,
                                 addr + std::max<uint64_t>(size, 1));
}

uint64_t
HeapAllocator::asanOverheadBytes() const
{
    return redzoneHeld + quarantineHeld;
}

void
HeapAllocator::drainQuarantine()
{
    while (quarantineHeld > asan.quarantineBytes && !quarantine.empty()) {
        QuarantineEntry e = quarantine.front();
        quarantine.pop_front();
        quarantineHeld -= e.chunkSize;
        unpoison(e.chunk, e.chunkSize);
        // Push onto the free list for real reuse.
        unsigned bin = binIndex(e.chunkSize);
        mem.write(e.chunk + HeaderBytes, bins[bin], 8);
        bins[bin] = e.chunk;
    }
}

uint64_t
HeapAllocator::allocateChunk(uint64_t chunk_size,
                             std::vector<MemTouch> *touches)
{
    unsigned bin = binIndex(chunk_size);
    if (chunk_size <= 512) {
        // Exact-size small bins: pop the head with no validation,
        // exactly like a fastbin/tcache — the fd link lives in
        // simulated memory, so a corrupted link hands out whatever
        // the attacker wrote.
        uint64_t chunk = bins[bin];
        if (chunk != 0) {
            uint64_t fd = mem.read(chunk + HeaderBytes, 8);
            if (touches)
                touches->push_back({chunk + HeaderBytes, false, 8});
            bins[bin] = fd;
            ++statBinReuse;
            return chunk;
        }
    } else {
        // Large bins span a power-of-two size range: first-fit walk
        // with a size check, like the unsorted/small-bin path.
        uint64_t prev = 0;
        uint64_t cur = bins[bin];
        unsigned hops = 0;
        while (cur != 0 && hops++ < 64) {
            uint64_t stored = readSizeField(cur) & ~FlagMask;
            if (touches)
                touches->push_back({cur + 8, false, 8});
            uint64_t fd = mem.read(cur + HeaderBytes, 8);
            if (touches)
                touches->push_back({cur + HeaderBytes, false, 8});
            if (stored >= chunk_size) {
                if (prev == 0) {
                    bins[bin] = fd;
                } else {
                    mem.write(prev + HeaderBytes, fd, 8);
                    if (touches)
                        touches->push_back(
                            {prev + HeaderBytes, true, 8});
                }
                ++statBinReuse;
                return cur;
            }
            prev = cur;
            cur = fd;
        }
    }
    // Bump from the wilderness.
    if (top + chunk_size > heapLimit) {
        return 0;
    }
    uint64_t chunk = top;
    top += chunk_size;
    ++statBumpAllocs;
    return chunk;
}

uint64_t
HeapAllocator::malloc(uint64_t size, std::vector<MemTouch> *touches)
{
    if (size == 0)
        size = 1;
    uint64_t chunk_size = chunkSizeFor(size);
    uint64_t chunk = allocateChunk(chunk_size, touches);
    if (chunk == 0) {
        ++statFailedAllocs;
        return 0;
    }

    writeSizeField(chunk, chunk_size | FlagInUse | FlagPrevInUse,
                   touches);
    mem.write(chunk, 0, 8); // prevSize
    if (touches)
        touches->push_back({chunk, true, 8});

    uint64_t user = chunk + HeaderBytes;
    if (asan.enabled) {
        user += asan.redzoneBytes;
        unpoison(user, size);
        poison(chunk + HeaderBytes, asan.redzoneBytes);
        poison(user + size, chunk + chunk_size - (user + size));
        redzoneHeld += 2 * asan.redzoneBytes;
    }

    ++statTotalAllocs;
    ++liveCount;
    maxLiveCount = std::max(maxLiveCount, liveCount);
    liveBytes += chunk_size;
    peakLiveBytes = std::max(peakLiveBytes, liveBytes);
    return user;
}

uint64_t
HeapAllocator::calloc(uint64_t n, uint64_t size,
                      std::vector<MemTouch> *touches)
{
    uint64_t total = n * size;
    if (n != 0 && total / n != size)
        return 0; // overflow
    uint64_t user = malloc(total, touches);
    if (user != 0)
        mem.fill(user, 0, total);
    return user;
}

uint64_t
HeapAllocator::realloc(uint64_t ptr, uint64_t size,
                       std::vector<MemTouch> *touches)
{
    if (ptr == 0)
        return malloc(size, touches);
    if (size == 0) {
        free(ptr, touches);
        return 0;
    }
    uint64_t old_usable = usableSize(ptr);
    uint64_t fresh = malloc(size, touches);
    if (fresh == 0)
        return 0;
    uint64_t copy = std::min(old_usable, size);
    std::vector<uint8_t> buf(copy);
    mem.readBlock(ptr, buf.data(), copy);
    mem.writeBlock(fresh, buf.data(), copy);
    free(ptr, touches);
    return fresh;
}

void
HeapAllocator::free(uint64_t ptr, std::vector<MemTouch> *touches)
{
    ++statTotalFrees;
    if (ptr == 0)
        return;

    uint64_t chunk = ptr - HeaderBytes;
    if (asan.enabled)
        chunk -= asan.redzoneBytes;

    uint64_t size_field = readSizeField(chunk);
    if (touches)
        touches->push_back({chunk + 8, false, 8});
    uint64_t chunk_size = size_field & ~FlagMask;
    if (chunk_size < MinChunk || chunk_size > heapLimit - heapBase) {
        // Garbage header (invalid free). A classic allocator would
        // crash or corrupt; we treat it as freeing a minimum chunk so
        // the fake chunk enters the free list (house-of-spirit).
        chunk_size = MinChunk;
    }

    // NOTE: no double-free detection — flags are cleared but the
    // chunk is pushed regardless, exactly like a fastbin.
    writeSizeField(chunk, (size_field & FlagMask & ~FlagInUse) | chunk_size,
                   touches);

    if (liveCount > 0)
        --liveCount;
    liveBytes -= std::min(liveBytes, chunk_size);

    if (asan.enabled) {
        poison(chunk, chunk_size);
        quarantine.push_back({chunk, chunk_size});
        quarantineHeld += chunk_size;
        redzoneHeld -= std::min(redzoneHeld, 2 * asan.redzoneBytes);
        drainQuarantine();
        return;
    }

    unsigned bin = binIndex(chunk_size);
    mem.write(ptr, bins[bin], 8); // fd link in user area
    if (touches)
        touches->push_back({ptr, true, 8});
    bins[bin] = chunk;
}

uint64_t
HeapAllocator::usableSize(uint64_t ptr) const
{
    uint64_t chunk = ptr - HeaderBytes;
    if (asan.enabled)
        chunk -= asan.redzoneBytes;
    uint64_t chunk_size = readSizeField(chunk) & ~FlagMask;
    uint64_t overhead =
        HeaderBytes + (asan.enabled ? 2 * asan.redzoneBytes : 0);
    return chunk_size > overhead ? chunk_size - overhead : 0;
}

bool
HeapAllocator::isLiveUserPtr(uint64_t ptr) const
{
    if (ptr < heapBase + HeaderBytes || ptr >= top)
        return false;
    uint64_t chunk = ptr - HeaderBytes;
    if (asan.enabled)
        chunk -= asan.redzoneBytes;
    uint64_t size_field = readSizeField(chunk);
    return (size_field & FlagInUse) != 0;
}

} // namespace chex
