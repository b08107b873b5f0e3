/**
 * @file
 * A resource calendar: models a per-cycle-width-limited structural
 * resource (issue ports, functional units, commit bandwidth) for the
 * forward-only timing calculator. Reservations always move forward
 * in time, so the calendar is a sliding ring buffer.
 */

#ifndef CHEX_CPU_RESOURCE_HH
#define CHEX_CPU_RESOURCE_HH

#include <array>
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
    /** Ring size in cycles; a reservation further than this past the
     * window's base slides the window. A power of two, so a cycle's
     * slot is a mask away. */
    static constexpr unsigned Horizon = 1024;

    /** @param width Slots available per cycle. */
    explicit ResourceCalendar(unsigned width) : _width(width)
    {
        chex_assert(width > 0, "bad calendar");
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
        used.fill(0);
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
    static constexpr uint64_t Mask = Horizon - 1;
    static_assert((Horizon & Mask) == 0, "horizon is a power of two");

    static size_t index(uint64_t cycle) { return cycle & Mask; }

    void
    slideTo(uint64_t cycle)
    {
        // Clear slots that fall out of the window as time advances.
        if (cycle < base + Horizon)
            return;
        uint64_t new_base = cycle - Horizon + 1;
        for (uint64_t c = base; c < new_base; ++c)
            used[index(c)] = 0;
        base = new_base;
    }

    unsigned _width;
    std::array<uint8_t, Horizon> used{};
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
