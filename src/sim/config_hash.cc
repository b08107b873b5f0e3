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
    h.f64("core.frequencyGHz", core.frequencyGHz);
    h.u64("core.fetchWidth", core.fetchWidth);
    h.u64("core.issueWidth", core.issueWidth);
    h.u64("core.commitWidth", core.commitWidth);
    h.u64("core.robEntries", core.robEntries);
    h.u64("core.iqEntries", core.iqEntries);
    h.u64("core.lqEntries", core.lqEntries);
    h.u64("core.sqEntries", core.sqEntries);
    h.u64("core.intRegs", core.intRegs);
    h.u64("core.fpRegs", core.fpRegs);
    h.u64("core.frontendDepth", core.frontendDepth);
    h.u64("core.redirectPenalty", core.redirectPenalty);
    h.u64("core.msromSwitchPenalty", core.msromSwitchPenalty);
    h.u64("core.intAluUnits", core.intAluUnits);
    h.u64("core.intMultUnits", core.intMultUnits);
    h.u64("core.fpAluUnits", core.fpAluUnits);
    h.u64("core.simdUnits", core.simdUnits);
    h.u64("core.loadPorts", core.loadPorts);
    h.u64("core.storePorts", core.storePorts);
    h.u64("core.capUnits", core.capUnits);

    const BranchPredictorConfig &bp = core.bpred;
    h.u64("bpred.bimodalEntries", bp.bimodalEntries);
    h.u64("bpred.taggedTables", bp.taggedTables);
    h.u64("bpred.taggedEntries", bp.taggedEntries);
    for (unsigned len : bp.historyLengths)
        h.u64("bpred.historyLength", len);
    h.u64("bpred.tagBits", bp.tagBits);
    h.u64("bpred.btbEntries", bp.btbEntries);
    h.u64("bpred.rasEntries", bp.rasEntries);

    const HierarchyConfig &mem = cfg.hierarchy;
    h.u64("hierarchy.lineBytes", mem.lineBytes);
    h.u64("hierarchy.l1Sets", mem.l1Sets);
    h.u64("hierarchy.l1Ways", mem.l1Ways);
    h.u64("hierarchy.l1Latency", mem.l1Latency);
    h.u64("hierarchy.l2Sets", mem.l2Sets);
    h.u64("hierarchy.l2Ways", mem.l2Ways);
    h.u64("hierarchy.l2Latency", mem.l2Latency);
    h.u64("hierarchy.dramLatency", mem.dramLatency);

    const VariantConfig &var = cfg.variant;
    h.u64("variant.kind", static_cast<uint64_t>(var.kind));
    h.u64("variant.haltOnViolation", var.haltOnViolation);
    h.u64("variant.criticalRegions", var.criticalRegions.size());
    for (const CodeRegion &r : var.criticalRegions) {
        h.u64("region.lo", r.lo);
        h.u64("region.hi", r.hi);
    }
    h.u64("variant.btTranslationCycles", var.btTranslationCycles);
    h.u64("variant.asanShadowBase", var.asanShadowBase);

    h.u64("capCacheEntries", cfg.capCacheEntries);

    const AliasPredictorConfig &ap = cfg.aliasPredictor;
    h.u64("aliasPredictor.entries", ap.entries);
    h.u64("aliasPredictor.blacklistEntries", ap.blacklistEntries);
    h.u64("aliasPredictor.confidenceMax", ap.confidenceMax);
    h.u64("aliasPredictor.predictThreshold", ap.predictThreshold);

    const AliasCacheConfig &ac = cfg.aliasCache;
    h.u64("aliasCache.sets", ac.sets);
    h.u64("aliasCache.ways", ac.ways);
    h.u64("aliasCache.victimEntries", ac.victimEntries);

    h.u64("maxAllocSize", cfg.maxAllocSize);
    h.u64("detectUninitializedReads", cfg.detectUninitializedReads);
    h.u64("enableChecker", cfg.enableChecker);
    h.u64("useTableIRules", cfg.useTableIRules);
    h.u64("maxMacroOps", cfg.maxMacroOps);
    h.u64("inUseIntervalMacroOps", cfg.inUseIntervalMacroOps);

    const AsanConfig &asan = cfg.asanAllocator;
    h.u64("asan.enabled", asan.enabled);
    h.u64("asan.redzoneBytes", asan.redzoneBytes);
    h.u64("asan.quarantineBytes", asan.quarantineBytes);
}

uint64_t
configHash(const SystemConfig &cfg)
{
    TaggedHasher h;
    hashSystemConfig(h, cfg);
    return h.digest();
}

} // namespace chex
