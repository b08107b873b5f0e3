/**
 * @file
 * A resource calendar: models a per-cycle-width-limited structural
 * resource (issue ports, functional units, commit bandwidth) for the
 * forward-only timing calculator. Reservations always move forward
 * in time, so the calendar is a sliding ring buffer.
 */

#ifndef CHEX_CPU_RESOURCE_HH
#define CHEX_CPU_RESOURCE_HH

#include <cstdint>
#include <vector>

#include "base/base64.hh"
#include "base/fields.hh"
#include "base/logging.hh"

namespace chex
{

/** Sliding-window per-cycle slot reservation. */
class ResourceCalendar
{
  public:
    /**
     * @param width Slots available per cycle.
     * @param horizon Ring size in cycles; reservations further than
     *        this past the frontier trigger a slide.
     */
    explicit ResourceCalendar(unsigned width, unsigned horizon = 1024)
        : _width(width), used(horizon, 0)
    {
        chex_assert(width > 0 && horizon > 0, "bad calendar");
        // cycle % horizon == cycle & (horizon - 1) for power-of-two
        // horizons; index() runs several times per micro-op, so skip
        // the divide when the geometry allows (it always does with
        // the default horizon).
        if ((horizon & (horizon - 1)) == 0)
            _mask = horizon - 1;
    }

    /**
     * Reserve one slot at the earliest cycle >= @p earliest.
     * @return the reserved cycle.
     */
    uint64_t
    reserve(uint64_t earliest)
    {
        if (earliest < base)
            earliest = base;
        slideTo(earliest);
        uint64_t cycle = earliest;
        while (used[index(cycle)] >= _width) {
            ++cycle;
            slideTo(cycle);
        }
        ++used[index(cycle)];
        return cycle;
    }

    unsigned width() const { return _width; }

    void
    reset()
    {
        std::fill(used.begin(), used.end(), 0);
        base = 0;
    }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh) */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("base", s.base);
        f("used", Base64Bytes{s.used});
    }
    /** @} */

  private:
    size_t
    index(uint64_t cycle) const
    {
        return _mask ? (cycle & _mask) : (cycle % used.size());
    }

    void
    slideTo(uint64_t cycle)
    {
        // Clear slots that fall out of the window as time advances.
        if (cycle < base + used.size())
            return;
        uint64_t new_base = cycle - used.size() + 1;
        for (uint64_t c = base; c < new_base; ++c)
            used[index(c)] = 0;
        base = new_base;
    }

    unsigned _width;
    uint64_t _mask = 0; // horizon-1 when horizon is a power of two
    std::vector<uint8_t> used;
    uint64_t base = 0;
};

/**
 * A sliding history of per-entry cycles used to model a finite
 * in-order-allocated structure (ROB, IQ, LQ, SQ): entry i is freed
 * when record(i - capacity) releases; dispatch must wait for it.
 */
class OccupancyWindow
{
  public:
    explicit OccupancyWindow(unsigned capacity)
        : cap(capacity), releaseCycles(capacity, 0)
    {
        chex_assert(capacity > 0, "bad occupancy window");
    }

    /**
     * Allocate the next entry; returns the earliest cycle at which a
     * slot is free (the release cycle of the entry `capacity` ago).
     * Call release() afterwards with this entry's own release cycle.
     */
    uint64_t
    allocBound() const
    {
        return releaseCycles[headIdx];
    }

    /** Record the release cycle of the entry just allocated. */
    void
    push(uint64_t release_cycle)
    {
        // headIdx tracks head % cap incrementally: the capacities
        // (224/64/72/56/180/168) are not powers of two, and six of
        // these run per micro-op, so the wrapped counter replaces an
        // integer divide with a compare.
        releaseCycles[headIdx] = release_cycle;
        ++head;
        if (++headIdx == cap)
            headIdx = 0;
    }

    unsigned capacity() const { return cap; }

    void
    reset()
    {
        std::fill(releaseCycles.begin(), releaseCycles.end(), 0);
        head = 0;
        headIdx = 0;
    }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * The monotone allocation count and the release ring; the
     * wrapped index is rebuilt from the count. */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("head", s.head);
        f("release", json::FixedLength{s.releaseCycles});
    }

    bool
    decode(const json::Value &v, std::string *why)
    {
        if (!json::decodeFields(v, *this, why))
            return false;
        headIdx = static_cast<unsigned>(head % cap);
        return true;
    }
    /** @} */

  private:
    unsigned cap;
    std::vector<uint64_t> releaseCycles;
    uint64_t head = 0;    // monotone allocation count (serialized)
    unsigned headIdx = 0; // head % cap, maintained incrementally
};

} // namespace chex

#endif // CHEX_CPU_RESOURCE_HH
