#include "pointer_tracker.hh"

#include "base/logging.hh"

namespace chex
{

SpeculativePointerTracker::SpeculativePointerTracker(
    RuleDatabase rules_in, AliasTable &aliases_in,
    const AliasPredictorConfig &pred_cfg,
    const AliasCacheConfig &cache_cfg)
    : rules(std::move(rules_in)),
      pred(pred_cfg),
      cache("aliasCache", cache_cfg.sets, cache_cfg.ways,
            cache_cfg.victimEntries),
      aliases(aliases_in),
      statsGroup("tracker"),
      statLoads(statsGroup.addScalar("loads", "load micro-ops seen")),
      statStores(statsGroup.addScalar("stores", "store micro-ops seen")),
      statTaggedDerefs(statsGroup.addScalar(
          "taggedDerefs", "memory micro-ops via tagged base registers")),
      statSpills(statsGroup.addScalar(
          "pointerSpills", "stores that spilled a tagged pointer")),
      statReloads(statsGroup.addScalar(
          "pointerReloads", "loads that reloaded a spilled pointer")),
      statAliasKills(statsGroup.addScalar(
          "aliasKills", "alias entries overwritten by data stores")),
      statPageFilterSkips(statsGroup.addScalar(
          "pageFilterSkips",
          "alias lookups skipped by the TLB alias-hosting bit")),
      statRemoteInvalidations(statsGroup.addScalar(
          "remoteInvalidations",
          "cross-core alias-cache invalidations received"))
{
}

TrackResult
SpeculativePointerTracker::processUop(const StaticUop &uop, uint64_t pc,
                                      uint64_t seq, uint64_t eff_addr)
{
    TrackResult result;

    // Tags of the register sources.
    Pid src1_pid =
        uop.src1 != REG_NONE ? tags.current(uop.src1) : NoPid;
    Pid src2_pid =
        (uop.src2 != REG_NONE && !uop.useImm) ? tags.current(uop.src2)
                                              : NoPid;

    // Base-register tag for dereferences and LEA: the capability the
    // access occurs through.
    if (uop.hasMem && uop.mem.hasBase() && !uop.mem.ripRelative)
        result.basePid = tags.current(uop.mem.base);

    switch (uop.type) {
      case UopType::Load: {
        ++statLoads;
        result.taggedDeref = result.basePid != NoPid;
        if (result.taggedDeref)
            ++statTaggedDerefs;

        // Alias detection: predict at decode, verify at execute.
        AliasPrediction prediction = pred.predict(pc);
        Pid actual = NoPid;
        bool page_hosts = aliases.pageHostsAliases(eff_addr);
        if (page_hosts) {
            result.aliasLookupPerformed = true;
            result.aliasCacheHit = cache.access(eff_addr >> 6);
            if (result.aliasCacheHit) {
                actual = aliases.get(eff_addr);
            } else {
                AliasWalkResult walk = aliases.walk(eff_addr);
                actual = walk.pid;
                result.walkLevels = walk.levelsTouched;
                if (actual != NoPid)
                    cache.insert(eff_addr >> 6);
            }
        } else {
            ++statPageFilterSkips;
        }
        result.aliasOutcome = pred.update(pc, prediction, actual);
        if (actual != NoPid)
            ++statReloads;

        result.dstPid = actual;
        result.action = RuleAction::LoadAlias;
        if (uop.dst != REG_NONE)
            tags.write(uop.dst, actual, seq);
        break;
      }

      case UopType::Store: {
        ++statStores;
        result.taggedDeref = result.basePid != NoPid;
        if (result.taggedDeref)
            ++statTaggedDerefs;

        result.action = RuleAction::StoreAlias;
        if (src1_pid != NoPid) {
            // Spilled-pointer alias: the store buffer carries the PID
            // until commit; committed stores update the alias cache
            // and shadow table.
            result.spillsPointer = true;
            ++statSpills;
            aliases.set(eff_addr, src1_pid);
            cache.insert(eff_addr >> 6);
        } else if (aliases.pageHostsAliases(eff_addr) &&
                   aliases.get(eff_addr) != NoPid) {
            // A data value overwrote a spilled pointer: kill the
            // stale alias so later loads are not mis-tagged.
            aliases.set(eff_addr, NoPid);
            cache.invalidate(eff_addr >> 6);
            ++statAliasKills;
        }
        break;
      }

      case UopType::Lea: {
        // The LEA rule propagates the base register's tag.
        result.dstPid =
            rules.propagate(uop, result.basePid, NoPid, &result.action);
        if (uop.dst != REG_NONE)
            tags.write(uop.dst, result.dstPid, seq);
        break;
      }

      case UopType::IntAlu:
      case UopType::IntMult:
      case UopType::IntDiv:
      case UopType::FpAlu:
      case UopType::FpMult:
      case UopType::FpDiv:
      case UopType::LoadImm: {
        result.dstPid =
            rules.propagate(uop, src1_pid, src2_pid, &result.action);
        if (uop.dst != REG_NONE)
            tags.write(uop.dst, result.dstPid, seq);
        break;
      }

      case UopType::Branch:
      case UopType::Nop:
      default:
        break;
    }

    return result;
}

void
SpeculativePointerTracker::tagRegister(RegId reg, Pid pid, uint64_t seq)
{
    tags.write(reg, pid, seq);
}

void
SpeculativePointerTracker::clearAliasRange(uint64_t addr, uint64_t len)
{
    if (len == 0)
        return;
    uint64_t first = addr & ~7ull;
    // addr + len can wrap past the top of the address space, which
    // would make a naive `a < addr + len` bound silently clear
    // nothing. Saturate the exclusive end, then iterate over word
    // addresses with an inclusive last-word bound so the increment
    // itself cannot wrap either.
    uint64_t end = len > ~addr ? ~0ull : addr + len;
    uint64_t last = (end - 1) & ~7ull;
    for (uint64_t a = first;; a += 8) {
        if (aliases.pageHostsAliases(a) && aliases.get(a) != NoPid) {
            aliases.set(a, NoPid);
            cache.invalidate(a >> 6);
        }
        if (a == last)
            break;
    }
}

void
SpeculativePointerTracker::seedAlias(uint64_t addr, Pid pid)
{
    aliases.set(addr, pid);
}

} // namespace chex
