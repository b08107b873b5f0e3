/**
 * @file
 * The in-processor capability cache (Section IV-B): a small fully
 * associative cache of currently-in-use capabilities, exploiting the
 * observation (Figure 3) that programs actively use only a handful
 * of allocations at a time. Accessed only by capability-check
 * micro-ops, so it sits off the critical path of ordinary loads.
 */

#ifndef CHEX_CAP_CAP_CACHE_HH
#define CHEX_CAP_CAP_CACHE_HH

#include "cap/capability.hh"
#include "mem/cache.hh"

namespace chex
{

/** Fully associative PID-indexed capability cache. */
class CapabilityCache
{
  public:
    /** @param entries Capacity (paper default: 64). */
    explicit CapabilityCache(unsigned entries = 64);

    /**
     * Look up @p pid for a capCheck; on a miss the entry is filled
     * (the shadow-table walk is charged by the caller).
     * @return true on hit.
     */
    bool lookup(Pid pid);

    /**
     * Cross-core invalidation on free (Section IV-C): drop the
     * entry so the freed capability's valid bit cannot be stale.
     */
    void invalidate(Pid pid);

    uint64_t hits() const { return cache.hits(); }
    uint64_t misses() const { return cache.misses(); }
    uint64_t accesses() const { return cache.accesses(); }
    double missRate() const { return cache.missRate(); }
    uint64_t invalidationsSent() const { return _invalidationsSent; }

    unsigned capacity() const { return cache.capacity(); }

    /** Hit latency in cycles (pipelined, off the load critical path). */
    static constexpr unsigned HitLatency = 2;

    void clear() { cache.clear(); }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh) */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("cache", s.cache);
        f("invalidationsSent", s._invalidationsSent);
    }
    /** @} */

  private:
    SetAssocCache cache;
    uint64_t _invalidationsSent = 0;
};

} // namespace chex

#endif // CHEX_CAP_CAP_CACHE_HH
