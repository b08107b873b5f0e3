/**
 * @file
 * The per-process shadow capability table (Section IV-B): tracks
 * every capability ever granted — live and freed — in a privileged
 * shadow address space accessible only to dynamically generated
 * micro-ops. Capability generation and freeing are two-phase
 * (Begin/End), mirroring the interception of heap-function entry and
 * exit points. The table also performs the capability checks behind
 * the capCheck micro-op and resolves addresses to PIDs for the
 * hardware checker's exhaustive search.
 *
 * Backing stores are sized for server-scale working sets (millions
 * of capabilities in flight) rather than SPEC-scale ones: the
 * capability map is a PID-indexed paged array with pooled pages, the
 * live/freed interval indices are pooled-chunk sorted runs, and the
 * opt-in initialization shadow is an interval set instead of a full
 * per-allocation word bitmap. All three preserve the exact semantics
 * of the std::map-based stores they replaced.
 */

#ifndef CHEX_CAP_CAP_TABLE_HH
#define CHEX_CAP_CAP_TABLE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/fields.hh"
#include "base/range_set.hh"
#include "cap/capability.hh"
#include "cap/interval_index.hh"
#include "cap/paged_store.hh"

namespace chex
{

/** Outcome of a capCheck micro-op. */
struct CheckResult
{
    Violation violation = Violation::None;
    bool ok() const { return violation == Violation::None; }
};

/** The shadow capability table. */
class CapabilityTable
{
  public:
    CapabilityTable();

    /**
     * capGen.Begin: instantiate a new capability with the busy bit
     * set and bounds copied from the allocation-size argument
     * (%rdi). Returns the new PID, or NoPid with an OversizeAlloc
     * violation when the request exceeds the configured maximum.
     */
    Pid beginGeneration(uint64_t request_size, Violation *violation);

    /**
     * capGen.End: finalize the capability with the returned base
     * address (%rax); sets valid iff base != 0, clears busy.
     */
    void endGeneration(Pid pid, uint64_t base);

    /**
     * capFree.Begin: validate and mark the capability busy.
     * Flags InvalidFree when the PID is zero/wild/unknown, when the
     * capability was not generated by a registered heap function
     * (e.g. a global), or when the freed address is not the
     * capability's base; flags DoubleFree when already invalid.
     * @param addr The pointer value being freed (%rdi).
     */
    Violation beginFree(Pid pid, uint64_t addr);

    /** capFree.End: clear valid and busy. */
    void endFree(Pid pid);

    /**
     * Pre-register a capability for a global data object from the
     * symbol table (program-load initialization via wrmsr).
     */
    Pid addGlobal(const std::string &name, uint64_t base,
                  uint64_t size);

    /**
     * The capCheck micro-op: verify that dereferencing @p size bytes
     * at @p addr through capability @p pid is legal.
     */
    CheckResult check(Pid pid, uint64_t addr, uint64_t size,
                      bool is_write) const;

    /** Lookup (nullptr if the PID has no capability, e.g. WildPid). */
    const Capability *find(Pid pid) const;

    /**
     * The hardware checker's exhaustive search: find the PID of the
     * tracked block (live or freed) containing @p addr, preferring
     * live blocks; NoPid if none.
     */
    Pid pidForAddress(uint64_t addr) const;

    /** Number of capabilities ever created. */
    uint64_t totalCapabilities() const { return store.size(); }

    /** Number of currently valid (live) capabilities. */
    uint64_t liveCapabilities() const { return liveCount; }

    /**
     * Shadow storage actually backing the table: allocated
     * capability pages, interval-index chunks, and initialization
     * intervals — not the old flat 16 bytes per capability, which
     * ignored both indices and the init shadow.
     */
    uint64_t
    storageBytes() const
    {
        return store.storageBytes() + liveByBase.storageBytes() +
               freedByBase.storageBytes() + initShadowBytes();
    }

    /** Bytes attributable to the initialization shadow. */
    uint64_t initShadowBytes() const;

    /** Maximum allocatable block (paper: 1 GiB); guards heap spray. */
    void setMaxAllocSize(uint64_t bytes) { maxAllocSize = bytes; }
    uint64_t getMaxAllocSize() const { return maxAllocSize; }

    /**
     * @{ @name Initialization tracking (extension, opt-in)
     * Per-capability shadow at 8-byte-word granularity: a word
     * counts as initialized once any byte of it is written. Reads of
     * never-written words flag UninitializedRead. Backed by merged
     * word intervals, so calloc (markAllInitialized) and the
     * sequential init loops real programs run record one interval
     * instead of materializing a full bitmap.
     */
    void setTrackInitialization(bool on) { trackInit = on; }
    bool trackingInitialization() const { return trackInit; }
    /** Record a write through @p pid covering [addr, addr+size). */
    void markInitialized(Pid pid, uint64_t addr, uint64_t size);
    /** Mark the whole block written (calloc). */
    void markAllInitialized(Pid pid);
    /** True iff every word of [addr, addr+size) has been written. */
    bool isInitialized(Pid pid, uint64_t addr, uint64_t size) const;
    /** @} */

    /** Erase everything (new process). */
    void clear();

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * Covers the capability map, the live/freed interval indices,
     * the PID allocator, and the initialization shadow (each entry's
     * shadow length and its initialized words as [lo, hi) ranges);
     * the config-derived knobs (maxAllocSize, trackInit) are not
     * state and stay with the constructor. Lists are keyed records
     * in ascending key order; decoding rejects a repeated or
     * out-of-order PID or base, and PID 0. The field list is
     * defined next to its record codecs in cap_table.cc. */
    template <typename S, typename F>
    static void fields(S &s, F &&f);
    json::Value encode() const;
    bool decode(const json::Value &v, std::string *why);
    /** @} */

  private:
    /**
     * Initialization shadow for one capability: word indices
     * (relative to base, 8 bytes per word) ever written, as merged
     * intervals. `words` is the length of the bitmap the old
     * representation would have held — (bounds+63)/64 + 1 uint64s —
     * preserved so out-of-range queries answer identically.
     */
    struct InitShadow
    {
        uint64_t words = 0;
        RangeSet set;
    };

    /** The init-shadow bitmap length for @p cap (old `need`). */
    static uint64_t
    initWordsFor(const Capability &cap)
    {
        return (cap.bounds + 63) / 64 + 1;
    }

    PagedCapabilityStore store;
    // Interval index for the exhaustive search: base -> pid, for
    // valid capabilities. Freed capabilities stay in the store (for
    // use-after-free detection) and in `freedByBase`.
    IntervalIndex liveByBase;
    IntervalIndex freedByBase;
    Pid nextPid = 1;
    uint64_t liveCount = 0;
    uint64_t maxAllocSize = 1ull << 30;
    bool trackInit = false;
    std::unordered_map<Pid, InitShadow> initBits;
};

} // namespace chex

#endif // CHEX_CAP_CAP_TABLE_HH
