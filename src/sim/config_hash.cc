#include "config_hash.hh"

#include "base/member_count.hh"

namespace chex
{
// Every member of each struct below is hashed. A new member changes
// its struct's count and fails here until hashSystemConfig() feeds it
// and the count is raised.
static_assert(memberCount<SystemConfig> == 13);
static_assert(memberCount<CoreConfig> == 21);
// 6 scalars + historyLengths[4], counted per element.
static_assert(memberCount<BranchPredictorConfig> == 10);
static_assert(memberCount<HierarchyConfig> == 8);
static_assert(memberCount<VariantConfig> == 5);
static_assert(memberCount<CodeRegion> == 2);
static_assert(memberCount<AliasPredictorConfig> == 4);
static_assert(memberCount<AliasCacheConfig> == 3);
static_assert(memberCount<AsanConfig> == 3);

void
hashSystemConfig(TaggedHasher &h, const SystemConfig &cfg)
{
    const CoreConfig &core = cfg.core;
    h.f64("core.frequencyGHz"_tag, core.frequencyGHz);
    h.u64("core.fetchWidth"_tag, core.fetchWidth);
    h.u64("core.issueWidth"_tag, core.issueWidth);
    h.u64("core.commitWidth"_tag, core.commitWidth);
    h.u64("core.robEntries"_tag, core.robEntries);
    h.u64("core.iqEntries"_tag, core.iqEntries);
    h.u64("core.lqEntries"_tag, core.lqEntries);
    h.u64("core.sqEntries"_tag, core.sqEntries);
    h.u64("core.intRegs"_tag, core.intRegs);
    h.u64("core.fpRegs"_tag, core.fpRegs);
    h.u64("core.frontendDepth"_tag, core.frontendDepth);
    h.u64("core.redirectPenalty"_tag, core.redirectPenalty);
    h.u64("core.msromSwitchPenalty"_tag, core.msromSwitchPenalty);
    h.u64("core.intAluUnits"_tag, core.intAluUnits);
    h.u64("core.intMultUnits"_tag, core.intMultUnits);
    h.u64("core.fpAluUnits"_tag, core.fpAluUnits);
    h.u64("core.simdUnits"_tag, core.simdUnits);
    h.u64("core.loadPorts"_tag, core.loadPorts);
    h.u64("core.storePorts"_tag, core.storePorts);
    h.u64("core.capUnits"_tag, core.capUnits);

    const BranchPredictorConfig &bp = core.bpred;
    h.u64("bpred.bimodalEntries"_tag, bp.bimodalEntries);
    h.u64("bpred.taggedTables"_tag, bp.taggedTables);
    h.u64("bpred.taggedEntries"_tag, bp.taggedEntries);
    for (unsigned len : bp.historyLengths)
        h.u64("bpred.historyLength"_tag, len);
    h.u64("bpred.tagBits"_tag, bp.tagBits);
    h.u64("bpred.btbEntries"_tag, bp.btbEntries);
    h.u64("bpred.rasEntries"_tag, bp.rasEntries);

    const HierarchyConfig &mem = cfg.hierarchy;
    h.u64("hierarchy.lineBytes"_tag, mem.lineBytes);
    h.u64("hierarchy.l1Sets"_tag, mem.l1Sets);
    h.u64("hierarchy.l1Ways"_tag, mem.l1Ways);
    h.u64("hierarchy.l1Latency"_tag, mem.l1Latency);
    h.u64("hierarchy.l2Sets"_tag, mem.l2Sets);
    h.u64("hierarchy.l2Ways"_tag, mem.l2Ways);
    h.u64("hierarchy.l2Latency"_tag, mem.l2Latency);
    h.u64("hierarchy.dramLatency"_tag, mem.dramLatency);

    const VariantConfig &var = cfg.variant;
    h.u64("variant.kind"_tag, static_cast<uint64_t>(var.kind));
    h.u64("variant.haltOnViolation"_tag, var.haltOnViolation);
    h.u64("variant.criticalRegions"_tag, var.criticalRegions.size());
    for (const CodeRegion &r : var.criticalRegions) {
        h.u64("region.lo"_tag, r.lo);
        h.u64("region.hi"_tag, r.hi);
    }
    h.u64("variant.btTranslationCycles"_tag, var.btTranslationCycles);
    h.u64("variant.asanShadowBase"_tag, var.asanShadowBase);

    h.u64("capCacheEntries"_tag, cfg.capCacheEntries);

    const AliasPredictorConfig &ap = cfg.aliasPredictor;
    h.u64("aliasPredictor.entries"_tag, ap.entries);
    h.u64("aliasPredictor.blacklistEntries"_tag, ap.blacklistEntries);
    h.u64("aliasPredictor.confidenceMax"_tag, ap.confidenceMax);
    h.u64("aliasPredictor.predictThreshold"_tag, ap.predictThreshold);

    const AliasCacheConfig &ac = cfg.aliasCache;
    h.u64("aliasCache.sets"_tag, ac.sets);
    h.u64("aliasCache.ways"_tag, ac.ways);
    h.u64("aliasCache.victimEntries"_tag, ac.victimEntries);

    h.u64("maxAllocSize"_tag, cfg.maxAllocSize);
    h.u64("detectUninitializedReads"_tag, cfg.detectUninitializedReads);
    h.u64("enableChecker"_tag, cfg.enableChecker);
    h.u64("useTableIRules"_tag, cfg.useTableIRules);
    h.u64("maxMacroOps"_tag, cfg.maxMacroOps);
    h.u64("inUseIntervalMacroOps"_tag, cfg.inUseIntervalMacroOps);

    const AsanConfig &asan = cfg.asanAllocator;
    h.u64("asan.enabled"_tag, asan.enabled);
    h.u64("asan.redzoneBytes"_tag, asan.redzoneBytes);
    h.u64("asan.quarantineBytes"_tag, asan.quarantineBytes);
}

uint64_t
configHash(const SystemConfig &cfg)
{
    TaggedHasher h;
    hashSystemConfig(h, cfg);
    return h.digest();
}

} // namespace chex
