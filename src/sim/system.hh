/**
 * @file
 * The full-system orchestrator: wires the out-of-order core, memory
 * hierarchy, simulated heap, shadow capability table + capability
 * cache, speculative pointer tracker, and the microcode
 * customization unit's interception/injection logic, then runs a
 * loaded program to completion under a chosen enforcement variant.
 *
 * Execution model: the correct path executes functionally in program
 * order (oracle execution); every micro-op — including injected
 * capability micro-ops and synthetic instrumentation — flows through
 * the timing core, which models the out-of-order pipeline,
 * mispredictions, and squashes.
 */

#ifndef CHEX_SIM_SYSTEM_HH
#define CHEX_SIM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/fields.hh"
#include "base/json.hh"
#include "base/stats.hh"

#include "cap/cap_cache.hh"
#include "cap/cap_table.hh"
#include "cpu/core.hh"
#include "cpu/machine_state.hh"
#include "heap/allocator.hh"
#include "isa/decoder.hh"
#include "isa/program.hh"
#include "mem/alias_table.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"
#include "tracker/checker.hh"
#include "tracker/pointer_tracker.hh"
#include "ucode/msr.hh"
#include "ucode/variant.hh"

namespace chex
{

/** Everything configurable about one simulation. */
struct SystemConfig
{
    CoreConfig core;
    HierarchyConfig hierarchy;
    VariantConfig variant;
    unsigned capCacheEntries = 64;
    AliasPredictorConfig aliasPredictor;
    AliasCacheConfig aliasCache;
    uint64_t maxAllocSize = 1ull << 30; // 1 GiB (Section VII-A)
    /**
     * Extension (off by default): flag reads of never-written
     * allocation bytes as UninitializedRead. The paper claims the
     * class (Section I) without evaluating it; enabling this adds
     * per-capability initialization bitmaps to the shadow table.
     */
    bool detectUninitializedReads = false;
    bool enableChecker = false;
    bool useTableIRules = true; // false: start near-empty (checker exp.)
    uint64_t maxMacroOps = 200'000'000;
    /** Figure-3 "allocations in use" interval (scaled from 100 M). */
    uint64_t inUseIntervalMacroOps = 100'000;
    // Quarantine scaled ~1000x down with the workloads (ASan's
    // default 256 MiB for GiB-scale heaps -> 256 KiB here).
    AsanConfig asanAllocator{true, 16, 256 << 10};
};

/** One flagged memory-safety violation. */
struct ViolationRecord
{
    Violation kind = Violation::None;
    uint64_t pc = 0;
    uint64_t addr = 0;
    Pid pid = NoPid;
};

/** ViolationRecord's members (base/fields.hh), for campaign reports
 * and snapshots alike. */
template <json::Is<ViolationRecord> V, typename F>
void
fields(V &v, F &&f)
{
    f("kind", json::Token{v.kind, violationName});
    f("pc", v.pc);
    f("addr", v.addr);
    f("pid", v.pid);
}

/** Aggregated results of one run. */
struct RunResult
{
    // Outcome
    bool exited = false;
    bool violationDetected = false;
    bool hijackedControlFlow = false;
    bool hitMacroCap = false;
    std::vector<ViolationRecord> violations;

    // Timing
    uint64_t cycles = 0;
    uint64_t macroOps = 0;
    uint64_t uops = 0;
    double ipc = 0.0;
    double seconds = 0.0;
    uint64_t squashCyclesBranch = 0;
    uint64_t squashCyclesAlias = 0;
    double squashFraction = 0.0;
    uint64_t branchMispredicts = 0;

    // Capability machinery
    uint64_t capChecksInjected = 0;
    uint64_t zeroIdiomChecks = 0;
    uint64_t injectedUops = 0;
    double capCacheMissRate = 0.0;
    uint64_t capCacheAccesses = 0;

    // Alias machinery
    double aliasCacheMissRate = 0.0;
    uint64_t aliasCacheAccesses = 0;
    double aliasPredAccuracy = 1.0;
    double reloadMispredictionRate = 0.0;
    uint64_t p0anFlushes = 0;
    uint64_t pmanForwards = 0;
    uint64_t pna0ZeroIdioms = 0;
    uint64_t pointerSpills = 0;
    uint64_t pointerReloads = 0;
    uint64_t loads = 0;

    // Memory
    uint64_t dramBytes = 0;
    double bandwidthMBps = 0.0;
    uint64_t residentBytes = 0;
    uint64_t shadowBytes = 0;
    uint64_t footprintBytes = 0; // resident + shadow

    // Heap behaviour (Figure 3)
    uint64_t totalAllocations = 0;
    uint64_t maxLiveAllocations = 0;
    double avgAllocationsInUse = 0.0;

    /**
     * Attack-job bookkeeping (driver attack jobs only): whether the
     * exploit's corruption indicator was inspected after the run,
     * and whether it held the expected value. Under the insecure
     * baseline a fired indicator proves the generated exploit is
     * real; under an enforcement variant it means the corruption
     * landed before (or despite) detection.
     */
    bool indicatorChecked = false;
    bool indicatorFired = false;
};

/** The simulated system. */
class System
{
  public:
    explicit System(const SystemConfig &cfg = {});

    /** Load a program: map data, seed globals, register MSRs. */
    void load(const Program &program);

    /** Run to completion (HLT, violation, hijack, or op cap). */
    RunResult run();

    /**
     * Run at most @p n more macro-ops, then pause. A paused system
     * holds the complete mid-run machine state and can be snapshotted
     * (saveSnapshot()) or continued (run() / runMacros()); the
     * eventual results are bit-identical to an uninterrupted run.
     *
     * @return true while the system is paused (resumable); false once
     *         the run terminated (HLT, violation halt, hijack, or the
     *         macro-op cap) — a terminated run is neither resumable
     *         nor snapshottable (a later run() starts over).
     */
    bool runMacros(uint64_t n);

    /** True when a run is paused mid-stream (snapshot-eligible). */
    bool paused() const { return pausedFlag; }

    /**
     * @{ @name Checkpoint/restore (chex-snapshot-v2)
     *
     * saveSnapshot() serializes the complete machine state of a
     * *paused* run — architectural state, sparse memory, cache
     * hierarchy, core timing state, branch predictor, heap arena,
     * capability table + cache, alias table, pointer tracker, and the
     * orchestrator's own run state — into a self-describing JSON
     * document pinned to this System's configuration (configHash) and
     * loaded program (programHash).
     *
     * restoreSnapshot() is strict (the base/fields.hh reader): it
     * rejects, returning false and naming the path of the first bad
     * member in @p err ("snapshot: machine.core.regReady[28] is not
     * an unsigned integer in range"), a wrong format tag, a config or
     * program mismatch, and any missing, mistyped, out-of-range,
     * non-canonical or geometry-incompatible member. On success the
     * system is paused at the recorded point; run()/runMacros()
     * continue from it bit-identically. On failure its state is
     * unspecified: restore into a freshly built System.
     *
     * Runs with cfg.enableChecker are not snapshottable: the checker
     * mutates its rule database in ways the snapshot does not carry.
     */
    json::Value saveSnapshot(std::string *err) const;
    bool restoreSnapshot(const json::Value &v, std::string *err);
    /** @} */

    /**
     * Dump a gem5-style statistics tree (core, heap, tracker, cache
     * hierarchy) for the most recent run.
     */
    void dumpStats(std::ostream &os);

    /**
     * The same statistics tree as dumpStats, serialized as a JSON
     * object (trailing newline included) for machine consumption.
     */
    void dumpStatsJson(std::ostream &os);

    /** @{ @name Component access (tests, benches) */
    CapabilityTable &capabilityTable() { return capTable; }
    CapabilityCache &capabilityCache() { return capCache; }
    SpeculativePointerTracker &tracker() { return *trackerPtr; }
    HeapAllocator &heap() { return heapAlloc; }
    MachineState &machine() { return ms; }
    Core &core() { return *corePtr; }
    MemoryHierarchy &hierarchy() { return hier; }
    HardwareChecker *checker() { return checkerPtr.get(); }
    AliasTable &aliasTable() { return aliases; }
    const SystemConfig &config() const { return cfg; }
    SparseMemory &memory() { return mem; }
    /** @} */

  private:
    struct PendingAlloc
    {
        IntrinsicKind kind = IntrinsicKind::None;
        Pid genPid = NoPid;   // capability being generated
        Pid freePid = NoPid;  // capability being freed (free/realloc)
    };

    template <json::Is<PendingAlloc> P, typename F>
    friend void
    fields(P &p, F &&f)
    {
        f("kind", json::Token{p.kind, intrinsicName});
        f("genPid", p.genPid);
        f("freePid", p.freePid);
    }

    /**
     * The Figure-3 interval PID set: the distinct PIDs checked since
     * the last sample. Membership is one bit per PID, and clear()
     * resets only the members' bits, so insert() is a bit test
     * instead of a hash insert. PIDs are dense (CapabilityTable hands
     * them out in order), so the bits sit in pages allocated on first
     * touch, as in PagedCapabilityStore: a stray PID costs one page.
     */
    class IntervalPidSet
    {
      public:
        void
        insert(Pid pid)
        {
            uint64_t &word = wordOf(pid);
            uint64_t bit = 1ull << (pid & 63);
            if (!(word & bit)) {
                word |= bit;
                members.push_back(pid);
            }
        }

        size_t size() const { return members.size(); }

        void clear();

        /** The members, ascending. */
        std::vector<Pid> sorted() const;

      private:
        static constexpr unsigned PageBits = 15; // 4 KiB of bits

        uint64_t &
        wordOf(Pid pid)
        {
            size_t page = pid >> PageBits;
            if (page >= pages.size() || !pages[page])
                addPage(page);
            return pages[page][(pid & ((1u << PageBits) - 1)) >> 6];
        }

        void addPage(size_t page);

        std::vector<std::unique_ptr<uint64_t[]>> pages;
        std::vector<Pid> members; // insertion order
    };

    /** The snapshot document's members (saveSnapshot()). */
    template <typename S, typename F>
    static void snapshotFields(S &s, F &&f);

    /** Build the stat tree and hand it to @p visit (dump helpers). */
    void visitStats(const std::function<void(stats::StatGroup &)> &visit);

    bool trackerEnabled() const
    {
        return usesCapabilities(cfg.variant.kind);
    }

    void raise(Violation v, uint64_t pc, uint64_t addr, Pid pid);

    /** MCU interception of registered entry points. */
    void interceptEntry(IntrinsicKind kind, uint64_t pc);
    /** MCU interception of registered exit points. */
    void interceptExit(IntrinsicKind kind, uint64_t pc);

    /** Inject + evaluate one capability-check micro-op. */
    void injectCapCheck(Pid pid, uint64_t ea, uint8_t size,
                        bool is_write, RegId base_reg, uint64_t pc);

    /** Synthetic macro-level instrumentation (BT / ASan). */
    void emitSyntheticChecks(const MacroInst &mi, uint64_t pc);

    /** Host-side execution of an INTRINSIC body. */
    void applyIntrinsic(IntrinsicKind kind, uint64_t pc);

    /** Timing-only micro-op for allocator metadata traffic. */
    void addTouchUops(const std::vector<MemTouch> &touches);

    /** One cap micro-op through the timing core. */
    void addCapUop(UopType type, RegId src, unsigned extra_latency);

    /** @{ @name Run-loop phases (run() = begin + step + collect) */
    /** Reset all per-run state and point fetch at the entry point. */
    void beginRun();
    /**
     * Execute macro-ops until a terminal condition or until
     * macroCount reaches @p stop_at (which pauses the run).
     */
    void stepLoop(uint64_t stop_at);
    /** Fill the derived fields of `result` from the components. */
    void collectResult();
    /** @} */

    SystemConfig cfg;
    SparseMemory mem;
    MemoryHierarchy hier;
    std::unique_ptr<Core> corePtr;
    MachineState ms;
    HeapAllocator heapAlloc;
    CapabilityTable capTable;
    CapabilityCache capCache;
    AliasTable aliases;
    std::unique_ptr<SpeculativePointerTracker> trackerPtr;
    std::unique_ptr<HardwareChecker> checkerPtr;
    MsrFile msrs;

    Program prog;
    // Every instruction's micro-ops in program order, and each
    // instruction's span of them.
    std::vector<StaticUop> crackedUops;
    std::vector<CrackedInst> crackCache;
    std::vector<bool> btTranslated;

    // Reusable synthetic-instrumentation buffers: the check
    // sequences have fixed shape, so emitSyntheticChecks() patches
    // the per-call fields in place instead of rebuilding the
    // micro-op vectors for every instrumented macro-op.
    std::vector<SyntheticMacro> asanSeqBuf;
    SyntheticMacro btSeqBuf;

    // Run state
    bool running = false;
    bool pausedFlag = false;  // mid-run, resumable (snapshot point)
    uint64_t seq = 0;
    uint64_t macroCount = 0;
    uint64_t pc = 0;          // fetch frontier (macro granularity)
    std::vector<PendingAlloc> pending;
    RunResult result;

    // Figure-3 interval tracking
    IntervalPidSet intervalPids;
    uint64_t intervalMacros = 0;
    uint64_t intervalSamples = 0;
    double intervalPidSum = 0.0;
};

} // namespace chex

#endif // CHEX_SIM_SYSTEM_HH
