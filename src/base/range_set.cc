#include "range_set.hh"

#include <algorithm>

namespace chex
{

size_t
RangeSet::upperBound(uint64_t point) const
{
    return std::upper_bound(ranges.begin(), ranges.end(), point,
                            [](uint64_t p, const Range &r) {
                                return p < r.first;
                            }) -
           ranges.begin();
}

void
RangeSet::add(uint64_t start, uint64_t end)
{
    if (start >= end)
        return;
    size_t lo = upperBound(start);
    // Merge a predecessor that reaches (or touches) start.
    if (lo > 0 && ranges[lo - 1].second >= start) {
        --lo;
        start = ranges[lo].first;
        end = std::max(end, ranges[lo].second);
    }
    // Swallow every following range that overlaps or touches end.
    size_t hi = lo;
    while (hi < ranges.size() && ranges[hi].first <= end) {
        end = std::max(end, ranges[hi].second);
        ++hi;
    }
    if (lo == hi) {
        ranges.insert(ranges.begin() + lo, Range(start, end));
    } else {
        ranges[lo] = Range(start, end);
        ranges.erase(ranges.begin() + lo + 1, ranges.begin() + hi);
    }
}

void
RangeSet::subtract(uint64_t start, uint64_t end)
{
    if (start >= end || ranges.empty())
        return;
    size_t lo = upperBound(start);
    // A predecessor strictly containing start may survive on the
    // left (and, if it extends past end, on the right too).
    if (lo > 0 && ranges[lo - 1].second > start) {
        --lo;
        Range prev = ranges[lo];
        if (prev.first < start && prev.second > end) {
            // Split into two.
            ranges[lo] = Range(prev.first, start);
            ranges.insert(ranges.begin() + lo + 1,
                          Range(end, prev.second));
            return;
        }
        if (prev.first < start) {
            ranges[lo] = Range(prev.first, start);
            ++lo;
        }
    }
    // Drop fully covered ranges; trim one straddling end.
    size_t hi = lo;
    while (hi < ranges.size() && ranges[hi].first < end) {
        if (ranges[hi].second > end) {
            ranges[hi] = Range(end, ranges[hi].second);
            break;
        }
        ++hi;
    }
    ranges.erase(ranges.begin() + lo, ranges.begin() + hi);
}

bool
RangeSet::overlaps(uint64_t start, uint64_t end) const
{
    if (start >= end)
        return false;
    size_t i = upperBound(start);
    if (i > 0 && ranges[i - 1].second > start)
        return true;
    return i < ranges.size() && ranges[i].first < end;
}

bool
RangeSet::covers(uint64_t start, uint64_t end) const
{
    if (start >= end)
        return true;
    // Canonical form: a fully covered interval lies inside a single
    // range (touching ranges were coalesced).
    size_t i = upperBound(start);
    return i > 0 && ranges[i - 1].second >= end;
}

uint64_t
RangeSet::totalLength() const
{
    uint64_t sum = 0;
    for (const Range &r : ranges)
        sum += r.second - r.first;
    return sum;
}

bool
RangeSet::decode(const json::Value &v, std::string *why)
{
    std::vector<Range> read;
    if (!json::decode(v, read, why))
        return false;
    for (size_t i = 0; i < read.size(); ++i) {
        if (read[i].first >= read[i].second ||
            (i > 0 && read[i].first <= read[i - 1].second)) {
            return json::reject(why, "[" + std::to_string(i) +
                                         "] is empty or not past the "
                                         "range before it");
        }
    }
    ranges = std::move(read);
    return true;
}

} // namespace chex
