/**
 * @file
 * A fixed-size slot array whose "valid" flags live outside the
 * entries: the entries sit in uninitialised storage and a bit mask
 * says which slots hold one. Constructing a table therefore writes
 * only its masks (one bit per slot), not every entry, which is what
 * lets a System with a megabyte of caches and predictor tables be
 * built in microseconds when a short run touches only a few of them.
 *
 * Slots are arranged in rows (a cache's sets; a flat table is one
 * row). Each row starts a new 64-bit mask word, so a row of up to 64
 * slots is one word. The flat index of (row, col) is row * width +
 * col, the order snapshots list slots in (json::ValidSlots).
 *
 * An entry is meaningful only while its slot is valid: readers test
 * validity first, and a writer that makes a slot valid writes the
 * whole entry. Entry types must be trivially default constructible
 * (each owner asserts it beside the type): a default member
 * initialiser would make the allocation write every entry after all.
 */

#ifndef CHEX_BASE_SLOT_TABLE_HH
#define CHEX_BASE_SLOT_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace chex
{

template <typename E>
class SlotTable
{
  public:
    /** @p rows rows of @p width slots each. */
    SlotTable(size_t rows, unsigned width)
        : _rows(rows),
          _width(width),
          _words((width + 63) / 64),
          _masks(rows * _words),
          _entries(std::make_unique_for_overwrite<E[]>(rows * width))
    {
    }

    /** One row of @p n slots: a flat table. */
    explicit SlotTable(unsigned n) : SlotTable(1, n) {}

    size_t size() const { return _rows * _width; }

    /** @{ Flat-index access. */
    E &operator[](size_t i) { return _entries[i]; }
    const E &operator[](size_t i) const { return _entries[i]; }

    bool
    valid(size_t i) const
    {
        auto [word, bit] = locate(i);
        return _masks[word] >> bit & 1;
    }

    void
    setValid(size_t i)
    {
        auto [word, bit] = locate(i);
        _masks[word] |= 1ull << bit;
    }

    void
    resetValid(size_t i)
    {
        auto [word, bit] = locate(i);
        _masks[word] &= ~(1ull << bit);
    }
    /** @} */

    /** @{ Row access. */
    E &at(size_t row, unsigned col) { return _entries[row * _width + col]; }

    void
    setValid(size_t row, unsigned col)
    {
        _masks[row * _words + col / 64] |= 1ull << (col % 64);
    }

    void
    resetValid(size_t row, unsigned col)
    {
        _masks[row * _words + col / 64] &= ~(1ull << (col % 64));
    }

    /** The lowest invalid column of @p row, or the row's width when
     * it is full (mask bits past the width are never set). */
    unsigned
    firstFree(size_t row) const
    {
        const uint64_t *mask = &_masks[row * _words];
        for (unsigned k = 0; k < _words; ++k)
            if (~mask[k])
                return std::min(k * 64 + std::countr_zero(~mask[k]), _width);
        return _width;
    }

    /** The lowest valid column of @p row whose entry satisfies
     * @p pred, or the row's width when there is none. */
    template <typename P>
    unsigned
    find(size_t row, P &&pred) const
    {
        const uint64_t *mask = &_masks[row * _words];
        const E *entries = &_entries[row * _width];
        for (unsigned k = 0; k < _words; ++k) {
            for (uint64_t m = mask[k]; m; m &= m - 1) {
                unsigned col = k * 64 + std::countr_zero(m);
                if (pred(entries[col]))
                    return col;
            }
        }
        return _width;
    }
    /** @} */

    /** Calls fn(i) for each valid slot's flat index, ascending. */
    template <typename F>
    void
    forEachValid(F &&fn) const
    {
        for (size_t row = 0; row < _rows; ++row) {
            for (unsigned k = 0; k < _words; ++k) {
                for (uint64_t m = _masks[row * _words + k]; m; m &= m - 1)
                    fn(row * _width + k * 64 + std::countr_zero(m));
            }
        }
    }

    /** Number of valid slots. */
    size_t
    count() const
    {
        size_t n = 0;
        for (uint64_t m : _masks)
            n += std::popcount(m);
        return n;
    }

    /** Invalidate every slot. */
    void clear() { std::fill(_masks.begin(), _masks.end(), 0); }

  private:
    /** Mask word and bit of flat slot @p i. */
    std::pair<size_t, unsigned>
    locate(size_t i) const
    {
        if (_rows == 1)
            return {i / 64, i % 64};
        size_t row = i / _width;
        unsigned col = static_cast<unsigned>(i % _width);
        return {row * _words + col / 64, col % 64};
    }

    size_t _rows;
    unsigned _width;
    unsigned _words; // mask words per row
    std::vector<uint64_t> _masks;
    std::unique_ptr<E[]> _entries;
};

} // namespace chex

#endif // CHEX_BASE_SLOT_TABLE_HH
