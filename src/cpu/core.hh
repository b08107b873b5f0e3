/**
 * @file
 * The out-of-order core timing model, configured after Table III
 * (Skylake-class: fetch 4 fused µops, issue 6 unfused µops, 224-entry
 * ROB, 64-entry IQ, 72/56 LQ/SQ, LTAGE-style branch prediction).
 *
 * The model is a forward-pass timing calculator over the in-order
 * (oracle) micro-op stream: each micro-op is assigned fetch,
 * dispatch, issue, complete, and commit cycles subject to dataflow
 * dependences (last-writer register availability), structural
 * resources (issue ports, functional units, ROB/IQ/LQ/SQ occupancy,
 * physical register files), cache latencies, and front-end redirects
 * (branch mispredictions and alias-predictor P0AN flushes).
 */

#ifndef CHEX_CPU_CORE_HH
#define CHEX_CPU_CORE_HH

#include <cstdint>

#include "base/stats.hh"
#include "cpu/bpred.hh"
#include "cpu/resource.hh"
#include "cpu/store_forward.hh"
#include "isa/decoder.hh"
#include "isa/uops.hh"
#include "mem/hierarchy.hh"

namespace chex
{

/** Core configuration (Table III defaults). */
struct CoreConfig
{
    double frequencyGHz = 3.4;
    unsigned fetchWidth = 4;     // fused (macro) ops per cycle
    unsigned issueWidth = 6;     // unfused micro-ops per cycle
    unsigned commitWidth = 8;
    unsigned robEntries = 224;
    unsigned iqEntries = 64;
    unsigned lqEntries = 72;
    unsigned sqEntries = 56;
    unsigned intRegs = 180;
    unsigned fpRegs = 168;
    unsigned frontendDepth = 5;  // fetch-to-dispatch stages
    unsigned redirectPenalty = 12;
    unsigned msromSwitchPenalty = 2;
    // Functional units (Table III)
    unsigned intAluUnits = 6;
    unsigned intMultUnits = 1;
    unsigned fpAluUnits = 3;
    unsigned simdUnits = 3;
    unsigned loadPorts = 2;
    unsigned storePorts = 1;
    unsigned capUnits = 2;       // capability-management micro-op ports
    BranchPredictorConfig bpred;
};

/** Static branch attributes the fetch stage knows. */
struct MacroBranchInfo
{
    bool isBranch = false;
    bool isCall = false;
    bool isReturn = false;
    bool isUncondDirect = false;
    bool isConditional = false;
    bool isIndirect = false;
    uint64_t fallthrough = 0;
};

/** Per-micro-op timing inputs from the orchestrator. */
struct UopTimingIn
{
    const StaticUop *uop = nullptr;
    uint64_t effAddr = 0;
    unsigned extraLatency = 0; // e.g. capability-cache miss fill
    bool zeroIdiom = false;    // squashed at the IQ, never issues
};

/** The timing core. */
class Core
{
  public:
    Core(const CoreConfig &cfg, MemoryHierarchy &hierarchy);

    /** Begin fetching one macro-instruction. */
    void beginMacro(uint64_t pc, DecodePath path,
                    const MacroBranchInfo &branch);

    /** Time one micro-op of the current macro (program order). */
    uint64_t addUop(const UopTimingIn &in);

    /** Finish the macro; resolves its branch if it had one. */
    void endMacro(bool taken, uint64_t target);

    /**
     * Charge a P0AN alias-misprediction flush: the pipeline squashes
     * younger micro-ops and refetches with the right checks injected
     * (Figure 5d). @p at_cycle is the verifying load's completion.
     */
    void chargeAliasFlush(uint64_t at_cycle);

    /**
     * Stall the front end for @p cycles (binary-translation warmup,
     * microcode-update installation, and similar whole-front-end
     * serializing events).
     */
    void stallFetch(uint64_t cycles);

    /** @{ @name Results */
    uint64_t cycles() const { return maxCommitCycle; }
    uint64_t uops() const { return numUops; }
    uint64_t macroOps() const { return numMacros; }
    uint64_t squashCyclesBranch() const { return _squashBranch; }
    uint64_t squashCyclesAlias() const { return _squashAlias; }
    uint64_t squashCyclesTotal() const
    {
        return _squashBranch + _squashAlias;
    }
    uint64_t branchMispredicts() const { return _branchMispredicts; }
    uint64_t zeroIdiomUops() const { return _zeroIdioms; }
    double
    ipc() const
    {
        return cycles() ? static_cast<double>(numUops) / cycles() : 0.0;
    }
    double
    secondsAt(double ghz) const
    {
        return static_cast<double>(cycles()) / (ghz * 1e9);
    }
    /** @} */

    BranchPredictor &branchPredictor() { return bpred; }
    const CoreConfig &config() const { return cfg; }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * Every timing-visible field: predictor, fetch frontier, all
     * resource calendars and occupancy windows, dataflow readiness,
     * store-forwarding map, per-macro bookkeeping, commit frontiers,
     * and counters. */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("bpred", s.bpred);
        f("fetchCycle", s.fetchCycle);
        f("fetchAvail", s.fetchAvail);
        f("macrosThisCycle", s.macrosThisCycle);
        f("lastFetchLine", s.lastFetchLine);
        f("issueCal", s.issueCal);
        f("commitCal", s.commitCal);
        f("intAlu", s.intAlu);
        f("intMult", s.intMult);
        f("fpAlu", s.fpAlu);
        f("simd", s.simd);
        f("loadPort", s.loadPort);
        f("storePort", s.storePort);
        f("capUnit", s.capUnit);
        f("rob", s.rob);
        f("iq", s.iq);
        f("lq", s.lq);
        f("sq", s.sq);
        f("intRegWindow", s.intRegWindow);
        f("fpRegWindow", s.fpRegWindow);
        f("regReady", json::FixedLength{s.regReady});
        f("storeForward", s.storeForward);
        f("curPc", s.curPc);
        f("curBranch", json::Group{[&](auto &g) {
              g("isBranch", s.curBranch.isBranch);
              g("isCall", s.curBranch.isCall);
              g("isReturn", s.curBranch.isReturn);
              g("isUncondDirect", s.curBranch.isUncondDirect);
              g("isConditional", s.curBranch.isConditional);
              g("isIndirect", s.curBranch.isIndirect);
              g("fallthrough", s.curBranch.fallthrough);
          }});
        f("curPrediction", json::Group{[&](auto &g) {
              g("taken", s.curPrediction.taken);
              g("target", s.curPrediction.target);
              g("targetKnown", s.curPrediction.targetKnown);
          }});
        f("branchUopComplete", s.branchUopComplete);
        f("lastCommitCycle", s.lastCommitCycle);
        f("maxCommitCycle", s.maxCommitCycle);
        f("numUops", s.numUops);
        f("numMacros", s.numMacros);
        f("squashBranch", s._squashBranch);
        f("squashAlias", s._squashAlias);
        f("branchMispredicts", s._branchMispredicts);
        f("zeroIdioms", s._zeroIdioms);
    }
    /** @} */

  private:
    unsigned uopLatency(const StaticUop &uop) const;
    ResourceCalendar &fuFor(const StaticUop &uop);
    void redirect(uint64_t resolve_cycle, uint64_t *squash_bucket);

    CoreConfig cfg;
    MemoryHierarchy &hier;
    BranchPredictor bpred;

    // Fetch state
    uint64_t fetchCycle = 0;     // frontier
    uint64_t fetchAvail = 0;     // earliest fetch after redirects
    unsigned macrosThisCycle = 0;
    uint64_t lastFetchLine = ~0ull;

    // Structural resources
    ResourceCalendar issueCal;
    ResourceCalendar commitCal;
    ResourceCalendar intAlu;
    ResourceCalendar intMult;
    ResourceCalendar fpAlu;
    ResourceCalendar simd;
    ResourceCalendar loadPort;
    ResourceCalendar storePort;
    ResourceCalendar capUnit;
    OccupancyWindow rob;
    OccupancyWindow iq;
    OccupancyWindow lq;
    OccupancyWindow sq;
    OccupancyWindow intRegWindow;
    OccupancyWindow fpRegWindow;

    // Dataflow
    uint64_t regReady[NumArchRegs] = {};
    StoreForwardTable storeForward; // word->ready

    // Per-macro bookkeeping
    uint64_t curPc = 0;
    MacroBranchInfo curBranch;
    BranchPrediction curPrediction;
    uint64_t branchUopComplete = 0;

    // In-order commit frontier
    uint64_t lastCommitCycle = 0;
    uint64_t maxCommitCycle = 0;

    // Statistics
    uint64_t numUops = 0;
    uint64_t numMacros = 0;
    uint64_t _squashBranch = 0;
    uint64_t _squashAlias = 0;
    uint64_t _branchMispredicts = 0;
    uint64_t _zeroIdioms = 0;
};

} // namespace chex

#endif // CHEX_CPU_CORE_HH
