/**
 * @file
 * Speculative register PID tags (Section V-D): each architectural
 * register carries (1) the finalized PID propagated by the last
 * committed instruction and (2) the transient PIDs written by
 * in-flight instructions, ordered by sequence number. Reads return
 * the youngest transient tag (the fetch stage runs ahead of the
 * pipe); squashes discard all transient tags younger than the
 * offending instruction; commits fold tags into the finalized field.
 *
 * The transients of all registers share one ring in sequence order:
 * commits pop its front, squashes pop its back. Each entry links to
 * the previous transient of its register, and youngest[r] is the
 * position of r's youngest one; a position before the front means
 * the register has no transient left.
 */

#ifndef CHEX_TRACKER_REG_TAGS_HH
#define CHEX_TRACKER_REG_TAGS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/fields.hh"
#include "base/logging.hh"
#include "cap/capability.hh"
#include "isa/regs.hh"

namespace chex
{

/** The per-register committed + transient PID tag file. */
class RegTagFile
{
  public:
    /** Youngest (speculative) PID tag of @p reg. */
    Pid
    current(RegId reg) const
    {
        chex_assert(reg < NumArchRegs, "bad register");
        uint64_t p = youngest[reg];
        return p >= head ? ring[p & mask].pid : finalized[reg];
    }

    /** Finalized (committed) PID tag of @p reg. */
    Pid
    committed(RegId reg) const
    {
        chex_assert(reg < NumArchRegs, "bad register");
        return finalized[reg];
    }

    /** Record a transient write of @p pid to @p reg at @p seq. Writes
     * come in sequence order; two registers may share a seq. */
    void
    write(RegId reg, Pid pid, uint64_t seq)
    {
        chex_assert(reg < NumArchRegs, "bad register");
        chex_assert(head == tail || ring[(tail - 1) & mask].seq <= seq,
                    "out-of-order transient write");
        chex_assert(youngest[reg] < head ||
                        ring[youngest[reg] & mask].seq < seq,
                    "out-of-order transient write");
        if (tail - head == ring.size())
            grow();
        ring[tail & mask] = {seq, youngest[reg], pid, reg};
        youngest[reg] = tail++;
    }

    /** Commit every transient write with sequence number <= @p seq. */
    void
    commitUpTo(uint64_t seq)
    {
        while (head != tail) {
            const Transient &t = ring[head & mask];
            if (t.seq > seq)
                break;
            finalized[t.reg] = t.pid;
            ++head;
        }
    }

    /** Discard every transient write with sequence number > @p seq. */
    void squashAfter(uint64_t seq);

    /** Total transient entries currently held (for tests). */
    size_t transientCount() const { return tail - head; }

    /** Reset to all-zero tags. */
    void clear();

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * One {finalized, transients} object per register, transients
     * as [seq, pid] pairs; decoding rejects transients not in
     * ascending sequence order. */
    json::Value encode() const;
    bool decode(const json::Value &v, std::string *why);
    /** @} */

  private:
    struct Transient
    {
        uint64_t seq;
        uint64_t prev; // position of the register's previous transient
        Pid pid;
        RegId reg;
    };

    /** Double the ring (allocate it on the first write). */
    void grow();

    /** Ring slots allocated by the first write; the core commits up
     * to 64 µops behind fetch, so this rarely grows. */
    static constexpr size_t InitialCapacity = 128;

    Pid finalized[NumArchRegs] = {}; // NoPid
    uint64_t youngest[NumArchRegs] = {};
    // Monotone positions of the ring's front and back; slot p is
    // ring[p & mask]. Positions start at 1, so a youngest[] of 0 is
    // always before the front: no transient.
    uint64_t head = 1;
    uint64_t tail = 1;
    uint64_t mask = 0;
    std::vector<Transient> ring; // power-of-two size, or empty
};

} // namespace chex

#endif // CHEX_TRACKER_REG_TAGS_HH
