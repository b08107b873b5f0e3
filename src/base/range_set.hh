/**
 * @file
 * A flat sorted set of disjoint half-open ranges [start, end) over
 * uint64_t, kept canonical (sorted, non-overlapping, non-adjacent —
 * touching ranges are coalesced on insert). Backed by one contiguous
 * vector instead of a node-per-range std::map, so membership and
 * overlap queries are a cache-friendly binary search and insertion
 * is a memmove — the right trade for the simulator's shadow
 * structures, which are query-dominated and mutate in bursts.
 *
 * Two hot consumers: the heap allocator's ASan poison ranges (every
 * poisoning free/alloc does an add/subtract, every checked access an
 * overlap probe) and the capability table's initialization shadow
 * (covered-interval queries replacing per-allocation word bitmaps).
 */

#ifndef CHEX_BASE_RANGE_SET_HH
#define CHEX_BASE_RANGE_SET_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/fields.hh"

namespace chex
{

/** Canonical flat set of disjoint [start, end) uint64 ranges. */
class RangeSet
{
  public:
    using Range = std::pair<uint64_t, uint64_t>; // [first, second)

    /**
     * Add [start, end), merging with any overlapping or adjacent
     * ranges. Empty ranges (start >= end) are ignored.
     */
    void add(uint64_t start, uint64_t end);

    /**
     * Remove [start, end) from the set, splitting any range that
     * straddles a boundary. Empty ranges are ignored.
     */
    void subtract(uint64_t start, uint64_t end);

    /** True if any point of [start, end) is in the set. */
    bool overlaps(uint64_t start, uint64_t end) const;

    /** True if every point of [start, end) is in the set. */
    bool covers(uint64_t start, uint64_t end) const;

    /** True if @p point is in the set. */
    bool contains(uint64_t point) const
    {
        return overlaps(point, point + 1);
    }

    void clear() { ranges.clear(); }
    bool empty() const { return ranges.empty(); }
    /** Number of disjoint ranges held. */
    size_t size() const { return ranges.size(); }
    /** Sum of range lengths. */
    uint64_t totalLength() const;
    /** Bytes of backing storage attributable to held ranges. */
    uint64_t storageBytes() const
    {
        return ranges.size() * sizeof(Range);
    }

    /** Ascending iteration over the disjoint ranges. */
    const std::vector<Range> &items() const { return ranges; }

    /** @{ @name Snapshot codec (base/fields.hh)
     * The ranges as [start, end) pairs. Reading rejects a list that
     * is not canonical: an empty range, or one that does not start
     * past the end of the one before it. */
    json::Value encode() const { return json::encode(ranges); }
    bool decode(const json::Value &v, std::string *why);
    /** @} */

  private:
    /** Index of the first range with start > @p point. */
    size_t upperBound(uint64_t point) const;

    std::vector<Range> ranges;
};

} // namespace chex

#endif // CHEX_BASE_RANGE_SET_HH
