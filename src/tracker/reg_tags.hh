/**
 * @file
 * Speculative register PID tags (Section V-D): each architectural
 * register carries (1) the finalized PID propagated by the last
 * committed instruction and (2) a vector of transient PIDs written
 * by in-flight instructions, ordered by sequence number. Reads
 * return the youngest transient tag (the fetch stage runs ahead of
 * the pipe); squashes discard all transient tags younger than the
 * offending instruction; commits fold tags into the finalized field.
 */

#ifndef CHEX_TRACKER_REG_TAGS_HH
#define CHEX_TRACKER_REG_TAGS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "base/fields.hh"
#include "cap/capability.hh"
#include "isa/regs.hh"

namespace chex
{

/** The per-register committed + transient PID tag file. */
class RegTagFile
{
  public:
    RegTagFile();

    /** Youngest (speculative) PID tag of @p reg. */
    Pid current(RegId reg) const;

    /** Finalized (committed) PID tag of @p reg. */
    Pid committed(RegId reg) const;

    /** Record a transient write of @p pid to @p reg at @p seq. */
    void write(RegId reg, Pid pid, uint64_t seq);

    /** Commit every transient write with sequence number <= @p seq. */
    void commitUpTo(uint64_t seq);

    /** Discard every transient write with sequence number > @p seq. */
    void squashAfter(uint64_t seq);

    /** Total transient entries currently held (for tests). */
    size_t transientCount() const;

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
    struct TransientTag
    {
        uint64_t seq;
        Pid pid;
    };
    struct RegTag
    {
        Pid finalized = NoPid;
        std::vector<TransientTag> transients; // ascending seq
    };

    RegTag tags[NumArchRegs];

    // Bit r set iff tags[r].transients is nonempty. commitUpTo()
    // runs once per micro-op and almost every register has no
    // in-flight writes, so the walk visits only set bits instead of
    // scanning all NumArchRegs vectors (NumArchRegs <= 64 by the
    // static_assert in regs.hh usage here).
    uint64_t nonEmpty = 0;

    static_assert(NumArchRegs <= 64, "nonEmpty bitmask too narrow");
};

} // namespace chex

#endif // CHEX_TRACKER_REG_TAGS_HH
