/**
 * @file
 * The speculative pointer tracker (Section V): the front-end unit
 * that propagates PIDs between registers via the rule database,
 * detects spilled-pointer aliases with the alias predictor + alias
 * cache + shadow alias table, and tells the microcode customization
 * unit which dereferences need capability checks.
 *
 * The simulator executes the correct path functionally in program
 * order (oracle execution), so the tracker is fed architecturally
 * correct effective addresses; prediction structures still operate
 * exactly as in hardware and their outcomes drive the timing model
 * (zero-idiom squashes for PNA0, pipeline flushes for P0AN, PID
 * forwarding for PMAN).
 */

#ifndef CHEX_TRACKER_POINTER_TRACKER_HH
#define CHEX_TRACKER_POINTER_TRACKER_HH

#include <cstdint>

#include "base/stats.hh"
#include "mem/alias_table.hh"
#include "mem/cache.hh"
#include "tracker/alias_predictor.hh"
#include "tracker/reg_tags.hh"
#include "tracker/rules.hh"

namespace chex
{

/** Alias-cache geometry (Section V-C defaults). */
struct AliasCacheConfig
{
    unsigned sets = 128; // 256 entries, 2-way
    unsigned ways = 2;
    unsigned victimEntries = 32;
};

/** What the tracker decided about one micro-op. */
struct TrackResult
{
    /** PID of the dereference base register (memory micro-ops). */
    Pid basePid = NoPid;
    /** True when a load/store dereferences a tagged base. */
    bool taggedDeref = false;
    /** PID written to the destination register, if any. */
    Pid dstPid = NoPid;
    /** Rule that fired. */
    RuleAction action = RuleAction::Clear;

    /** @{ @name Load-only alias-detection outputs */
    AliasOutcome aliasOutcome = AliasOutcome::CorrectNone;
    bool aliasLookupPerformed = false; // page filter let it through
    bool aliasCacheHit = false;
    unsigned walkLevels = 0;           // table-walk accesses on miss
    /** @} */

    /** True when a store spilled a tagged pointer to memory. */
    bool spillsPointer = false;
};

/** The speculative pointer tracker. */
class SpeculativePointerTracker
{
  public:
    SpeculativePointerTracker(RuleDatabase rules, AliasTable &aliases,
                              const AliasPredictorConfig &pred_cfg = {},
                              const AliasCacheConfig &cache_cfg = {});

    /**
     * Process one decoded micro-op in program order.
     * @param uop The cracked micro-op.
     * @param pc Address of the parent macro-instruction.
     * @param seq Global micro-op sequence number.
     * @param eff_addr Architected effective address (memory ops).
     */
    TrackResult processUop(const StaticUop &uop, uint64_t pc,
                           uint64_t seq, uint64_t eff_addr);

    /** Directly tag a register (capGen.End tags %rax, etc.). */
    void tagRegister(RegId reg, Pid pid, uint64_t seq);

    /** Current speculative tag of a register. */
    Pid regPid(RegId reg) const { return tags.current(reg); }

    /** Commit/squash plumbing (Section V-D). */
    void commitUpTo(uint64_t seq) { tags.commitUpTo(seq); }
    void squashAfter(uint64_t seq) { tags.squashAfter(seq); }

    /**
     * Clear alias entries in [addr, addr+len): used when runtime
     * routines (allocator metadata writes, memset/memcpy) overwrite
     * words that previously held spilled pointers.
     */
    void clearAliasRange(uint64_t addr, uint64_t len);

    /** Seed an alias entry (constant-pool slots for globals). */
    void seedAlias(uint64_t addr, Pid pid);

    AliasPredictor &predictor() { return pred; }
    const AliasPredictor &predictor() const { return pred; }
    VictimAugmentedCache &aliasCache() { return cache; }
    RuleDatabase &ruleDatabase() { return rules; }
    RegTagFile &regTags() { return tags; }
    AliasTable &aliasTable() { return aliases; }

    stats::StatGroup &statGroup() { return statsGroup; }

    /** @{ @name Counters the harness reads directly */
    uint64_t taggedDerefs() const { return statTaggedDerefs.count(); }
    uint64_t pointerSpills() const { return statSpills.count(); }
    uint64_t pointerReloads() const { return statReloads.count(); }
    uint64_t loadsSeen() const { return statLoads.count(); }
    /** @} */

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * Covers the tag file, predictor, alias cache, and counters.
     * The rule database is config-derived (rebuilt by the System
     * constructor) and the shadow alias table is owned by the
     * System, which serializes it separately. */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("tags", s.tags);
        f("predictor", s.pred);
        f("aliasCache", s.cache);
        f("loads", s.statLoads);
        f("stores", s.statStores);
        f("taggedDerefs", s.statTaggedDerefs);
        f("spills", s.statSpills);
        f("reloads", s.statReloads);
        f("aliasKills", s.statAliasKills);
        f("pageFilterSkips", s.statPageFilterSkips);
        f("remoteInvalidations", s.statRemoteInvalidations);
    }
    /** @} */

  private:
    RuleDatabase rules;
    RegTagFile tags;
    AliasPredictor pred;
    VictimAugmentedCache cache;
    AliasTable &aliases;

    stats::StatGroup statsGroup;
    stats::Scalar &statLoads;
    stats::Scalar &statStores;
    stats::Scalar &statTaggedDerefs;
    stats::Scalar &statSpills;
    stats::Scalar &statReloads;
    stats::Scalar &statAliasKills;
    stats::Scalar &statPageFilterSkips;
    stats::Scalar &statRemoteInvalidations;
};

} // namespace chex

#endif // CHEX_TRACKER_POINTER_TRACKER_HH
