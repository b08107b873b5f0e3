#include "system.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>

#include "base/logging.hh"
#include "isa/assembler.hh"
#include "sim/config_hash.hh"

namespace chex
{

namespace
{

/** Shadow-capability-table address for DRAM-traffic modelling. */
uint64_t
capShadowAddr(Pid pid)
{
    constexpr uint64_t CapShadowBase = 0xffff800000000000ull;
    return CapShadowBase + static_cast<uint64_t>(pid) * 16;
}

/**
 * Checker experiment: seed only the trivial MOV rule, as an expert
 * would, and let the checker construct the rest.
 */
RuleDatabase
checkerSeedRules()
{
    RuleDatabase seed;
    for (const auto &rule : RuleDatabase::tableI().rules()) {
        if (rule.key.type == UopType::IntAlu && rule.key.op == AluOp::Mov)
            seed.install(rule);
        // Loads/stores flow through the alias machinery
        // unconditionally; keep those rules too.
        if (rule.key.type == UopType::Load ||
            rule.key.type == UopType::Store)
            seed.install(rule);
    }
    return seed;
}

} // anonymous namespace

System::System(const SystemConfig &cfg_in)
    : cfg(cfg_in),
      hier(cfg.hierarchy),
      corePtr(std::make_unique<Core>(cfg.core, hier)),
      ms(mem),
      heapAlloc(mem, layout::HeapBase, layout::HeapLimit),
      capCache(cfg.capCacheEntries)
{
    capTable.setMaxAllocSize(cfg.maxAllocSize);
    capTable.setTrackInitialization(cfg.detectUninitializedReads);

    trackerPtr = std::make_unique<SpeculativePointerTracker>(
        cfg.useTableIRules ? RuleDatabase::tableI() : checkerSeedRules(),
        aliases, cfg.aliasPredictor, cfg.aliasCache);

    if (cfg.enableChecker) {
        checkerPtr = std::make_unique<HardwareChecker>(
            capTable, trackerPtr->ruleDatabase());
    }

    if (cfg.variant.kind == VariantKind::Asan)
        heapAlloc.setAsan(cfg.asanAllocator);
}

void
System::load(const Program &program)
{
    prog = program;
    crackedUops.clear();
    crackedUops.reserve(prog.code.size());
    crackCache.clear();
    crackCache.reserve(prog.code.size());
    for (size_t i = 0; i < prog.code.size(); ++i)
        crackCache.push_back(
            Decoder::crack(prog.code[i], prog.addrOf(i), crackedUops));
    btTranslated.assign(prog.code.size(), false);

    // Constant pool: slots hold the addresses of global objects.
    for (const auto &slot : prog.pool)
        mem.write(slot.addr, slot.value, 8);

    // Initialized data (schedules, size tables, exploit payloads).
    for (const auto &blob : prog.initData)
        mem.writeBlock(blob.addr, blob.bytes.data(), blob.bytes.size());

    // Stack.
    ms.setReg(RSP, layout::StackTop);

    // The OS registers heap-management entry/exit points in MSRs and
    // preloads the symbol table into shadow capabilities.
    if (trackerEnabled()) {
        for (const auto &f : prog.runtimeFuncs) {
            switch (f.kind) {
              case IntrinsicKind::Malloc:
              case IntrinsicKind::Calloc:
              case IntrinsicKind::Realloc:
              case IntrinsicKind::Free:
                msrs.registerFunction(f.kind, f.entryAddr, f.exitAddr);
                break;
              default:
                break;
            }
        }
        for (const auto &sym : prog.symbols) {
            Pid pid = capTable.addGlobal(sym.name, sym.addr, sym.size);
            // Global data objects carry defined (data/bss) contents.
            capTable.markAllInitialized(pid);
            // Seed alias entries for the constant-pool slots that
            // hold this global's address: a PC-relative load of the
            // slot tags the destination register automatically.
            for (const auto &slot : prog.pool)
                if (slot.refSymbol == sym.name)
                    trackerPtr->seedAlias(slot.addr, pid);
        }
    }
}

void
System::raise(Violation v, uint64_t pc, uint64_t addr, Pid pid)
{
    result.violations.push_back({v, pc, addr, pid});
    result.violationDetected = true;
    if (cfg.variant.haltOnViolation)
        running = false;
}

void
System::addCapUop(UopType type, RegId src, unsigned extra_latency)
{
    StaticUop u;
    u.type = type;
    u.src1 = src;
    u.synthetic = true;
    UopTimingIn tin;
    tin.uop = &u;
    tin.extraLatency = extra_latency;
    corePtr->addUop(tin);
    ++result.injectedUops;
}

void
System::interceptEntry(IntrinsicKind kind, uint64_t pc)
{
    PendingAlloc p;
    p.kind = kind;

    switch (kind) {
      case IntrinsicKind::Malloc:
      case IntrinsicKind::Calloc:
      case IntrinsicKind::Realloc: {
        uint64_t size = 0;
        if (kind == IntrinsicKind::Malloc)
            size = ms.reg(RDI);
        else if (kind == IntrinsicKind::Calloc)
            size = ms.reg(RDI) * ms.reg(RSI);
        else
            size = ms.reg(RSI);

        Violation v = Violation::None;
        p.genPid = capTable.beginGeneration(size, &v);
        addCapUop(UopType::CapGenBegin, RDI, 0);
        if (v != Violation::None) {
            raise(v, pc, size, NoPid);
            break;
        }
        if (kind == IntrinsicKind::Realloc && ms.reg(RDI) != 0) {
            p.freePid = trackerPtr->regPid(RDI);
            Violation fv = capTable.beginFree(p.freePid, ms.reg(RDI));
            addCapUop(UopType::CapFreeBegin, RDI, 0);
            if (fv != Violation::None)
                raise(fv, pc, ms.reg(RDI), p.freePid);
        }
        break;
      }
      case IntrinsicKind::Free: {
        p.freePid = trackerPtr->regPid(RDI);
        Violation v = capTable.beginFree(p.freePid, ms.reg(RDI));
        addCapUop(UopType::CapFreeBegin, RDI, 0);
        if (v != Violation::None)
            raise(v, pc, ms.reg(RDI), p.freePid);
        break;
      }
      default:
        break;
    }
    pending.push_back(p);
}

void
System::interceptExit(IntrinsicKind kind, uint64_t pc)
{
    (void)pc;
    if (pending.empty())
        return;
    PendingAlloc p = pending.back();
    pending.pop_back();
    if (p.kind != kind)
        return;

    switch (kind) {
      case IntrinsicKind::Malloc:
      case IntrinsicKind::Calloc:
      case IntrinsicKind::Realloc: {
        uint64_t base = ms.reg(RAX);
        capTable.endGeneration(p.genPid, base);
        addCapUop(UopType::CapGenEnd, RAX, 0);
        if (base != 0)
            trackerPtr->tagRegister(RAX, p.genPid, seq);
        // calloc hands back zeroed (initialized) memory; realloc's
        // new block inherits the copied contents.
        if (base != 0 && cfg.detectUninitializedReads &&
            (kind == IntrinsicKind::Calloc ||
             kind == IntrinsicKind::Realloc))
            capTable.markAllInitialized(p.genPid);
        if (p.freePid != NoPid) {
            capTable.endFree(p.freePid);
            capCache.invalidate(p.freePid);
            addCapUop(UopType::CapFreeEnd, REG_NONE, 0);
        }
        break;
      }
      case IntrinsicKind::Free: {
        if (p.freePid != NoPid) {
            capTable.endFree(p.freePid);
            // Freeing broadcasts one invalidation so no capability
            // cache retains a stale valid bit (Section IV-C).
            capCache.invalidate(p.freePid);
        }
        addCapUop(UopType::CapFreeEnd, REG_NONE, 0);
        break;
      }
      default:
        break;
    }
}

void
System::injectCapCheck(Pid pid, uint64_t ea, uint8_t size,
                       bool is_write, RegId base_reg, uint64_t pc)
{
    unsigned extra = 0;
    if (pid != NoPid && pid != WildPid) {
        bool hit = capCache.lookup(pid);
        if (!hit)
            extra = hier.shadowAccess(capShadowAddr(pid));
        intervalPids.insert(pid);
    }

    StaticUop chk;
    chk.type = UopType::CapCheck;
    chk.src1 = base_reg;
    chk.synthetic = true;
    UopTimingIn tin;
    tin.uop = &chk;
    tin.effAddr = ea;
    tin.extraLatency = CapabilityCache::HitLatency - 1 + extra;
    corePtr->addUop(tin);
    ++result.injectedUops;
    ++result.capChecksInjected;

    CheckResult cr = capTable.check(pid, ea, size, is_write);
    if (!cr.ok()) {
        raise(cr.violation, pc, ea, pid);
        return;
    }
    if (cfg.detectUninitializedReads && pid != NoPid &&
        pid != WildPid) {
        if (is_write)
            capTable.markInitialized(pid, ea, size);
        else if (!capTable.isInitialized(pid, ea, size))
            raise(Violation::UninitializedRead, pc, ea, pid);
    }
}

void
System::emitSyntheticChecks(const MacroInst &mi, uint64_t pc)
{
    MacroBranchInfo no_branch;
    if (cfg.variant.kind == VariantKind::BinaryTranslation) {
        btCheckSequenceInto(btSeqBuf, mi.mem);
        const SyntheticMacro &m = btSeqBuf;
        corePtr->beginMacro(pc + 1, DecodePath::Complex, no_branch);
        uint64_t ea = ms.effectiveAddr(mi.mem);
        Pid pid = NoPid;
        if (mi.mem.hasBase() && !mi.mem.ripRelative)
            pid = trackerPtr->regPid(mi.mem.base);
        for (const auto &u : m.uops) {
            if (u.type == UopType::CapCheck) {
                injectCapCheck(pid, ea, mi.size, mi.isStore(),
                               mi.mem.base, pc);
            } else {
                UopEffect eff = ms.execute(u, 0);
                UopTimingIn tin;
                tin.uop = &u;
                tin.effAddr = eff.effAddr;
                corePtr->addUop(tin);
                ++result.injectedUops;
            }
        }
        corePtr->endMacro(false, 0);
        return;
    }

    // ASan: three synthetic check macros per memory operand.
    asanCheckSequenceInto(asanSeqBuf, mi.mem,
                          cfg.variant.asanShadowBase);
    const auto &macros = asanSeqBuf;
    for (size_t i = 0; i < macros.size(); ++i) {
        corePtr->beginMacro(pc + 1 + i, DecodePath::Simple, no_branch);
        for (const auto &u : macros[i].uops) {
            UopEffect eff = ms.execute(u, 0);
            UopTimingIn tin;
            tin.uop = &u;
            tin.effAddr = eff.effAddr;
            corePtr->addUop(tin);
            ++result.injectedUops;
        }
        corePtr->endMacro(false, 0);
    }

    // Functional ASan detection: poisoned bytes (redzones, freed
    // memory in quarantine) flag the access.
    uint64_t ea = ms.effectiveAddr(mi.mem);
    if (heapAlloc.isPoisoned(ea, mi.size))
        raise(Violation::OutOfBounds, pc, ea, NoPid);
}

void
System::addTouchUops(const std::vector<MemTouch> &touches)
{
    for (const auto &t : touches) {
        StaticUop u;
        u.type = t.isWrite ? UopType::Store : UopType::Load;
        if (t.isWrite)
            u.src1 = T2;
        else
            u.dst = T2;
        u.mem = memAbs(t.addr);
        u.hasMem = true;
        u.memSize = t.size;
        u.synthetic = true;
        UopTimingIn tin;
        tin.uop = &u;
        tin.effAddr = t.addr;
        corePtr->addUop(tin);
        if (t.isWrite && trackerEnabled())
            trackerPtr->clearAliasRange(t.addr, t.size);
    }
}

void
System::applyIntrinsic(IntrinsicKind kind, uint64_t pc)
{
    std::vector<MemTouch> touches;
    switch (kind) {
      case IntrinsicKind::Malloc:
        ms.setReg(RAX, heapAlloc.malloc(ms.reg(RDI), &touches));
        break;
      case IntrinsicKind::Calloc: {
        uint64_t user =
            heapAlloc.calloc(ms.reg(RDI), ms.reg(RSI), &touches);
        if (user && trackerEnabled())
            trackerPtr->clearAliasRange(user,
                                        ms.reg(RDI) * ms.reg(RSI));
        ms.setReg(RAX, user);
        break;
      }
      case IntrinsicKind::Realloc:
        ms.setReg(RAX, heapAlloc.realloc(ms.reg(RDI), ms.reg(RSI),
                                         &touches));
        break;
      case IntrinsicKind::Free: {
        // ASan's runtime validates the chunk state itself.
        if (cfg.variant.kind == VariantKind::Asan &&
            ms.reg(RDI) != 0 &&
            !heapAlloc.isLiveUserPtr(ms.reg(RDI))) {
            raise(Violation::DoubleFree, pc, ms.reg(RDI), NoPid);
            break;
        }
        heapAlloc.free(ms.reg(RDI), &touches);
        break;
      }
      case IntrinsicKind::PrintVal:
        ms.setReg(RAX, ms.reg(RDI));
        break;
      default:
        break;
    }
    addTouchUops(touches);

    // The ASan runtime does substantially more bookkeeping per
    // allocator call (poisoning, quarantine management).
    if (cfg.variant.kind == VariantKind::Asan &&
        kind != IntrinsicKind::PrintVal) {
        StaticUop filler;
        filler.type = UopType::IntAlu;
        filler.op = AluOp::Add;
        filler.dst = T0;
        filler.src1 = T0;
        filler.imm = 1;
        filler.useImm = true;
        filler.synthetic = true;
        unsigned n = Decoder::intrinsicUopCount(kind);
        for (unsigned i = 0; i < n; ++i) {
            UopTimingIn tin;
            tin.uop = &filler;
            corePtr->addUop(tin);
        }
    }
}

void
System::IntervalPidSet::clear()
{
    for (Pid pid : members)
        wordOf(pid) &= ~(1ull << (pid & 63));
    members.clear();
}

std::vector<Pid>
System::IntervalPidSet::sorted() const
{
    std::vector<Pid> out = members;
    std::sort(out.begin(), out.end());
    return out;
}

void
System::IntervalPidSet::addPage(size_t page)
{
    if (page >= pages.size())
        pages.resize(page + 1);
    pages[page] = std::make_unique<uint64_t[]>(size_t{1} << (PageBits - 6));
}

void
System::beginRun()
{
    result = RunResult{};
    running = true;
    seq = 0;
    macroCount = 0;
    pending.clear();
    intervalPids.clear();
    intervalMacros = 0;
    intervalSamples = 0;
    intervalPidSum = 0.0;
    pc = prog.entryPoint;
}

void
System::stepLoop(uint64_t stop_at)
{
    const bool cap_variant = usesCapabilities(cfg.variant.kind);
    const VariantKind kind = cfg.variant.kind;

    while (running) {
        if (macroCount >= cfg.maxMacroOps) {
            result.hitMacroCap = true;
            break;
        }
        if (macroCount >= stop_at) {
            pausedFlag = true;
            return;
        }
        size_t idx = prog.indexOf(pc);
        if (idx == SIZE_MAX) {
            result.hijackedControlFlow = true;
            break;
        }
        const MacroInst &mi = prog.code[idx];
        if (mi.opcode == MacroOpcode::HLT) {
            result.exited = true;
            break;
        }
        ++macroCount;

        // Figure-3 interval bookkeeping.
        if (cap_variant && ++intervalMacros >= cfg.inUseIntervalMacroOps) {
            intervalPidSum += static_cast<double>(intervalPids.size());
            ++intervalSamples;
            intervalPids.clear();
            intervalMacros = 0;
        }

        const CrackedInst &ci = crackCache[idx];
        uint64_t fallthrough = pc + InstSlotBytes;
        bool critical = cfg.variant.pcIsCritical(pc);

        // Macro-level instrumentation (binary translation / ASan)
        // precedes the instrumented instruction in fetch order.
        if (mi.isMemRef() && critical) {
            if (kind == VariantKind::BinaryTranslation) {
                if (!btTranslated[idx]) {
                    btTranslated[idx] = true;
                    corePtr->stallFetch(cfg.variant.btTranslationCycles);
                }
                emitSyntheticChecks(mi, pc);
            } else if (kind == VariantKind::Asan) {
                emitSyntheticChecks(mi, pc);
            }
        }
        if (!running)
            break;

        MacroBranchInfo bi;
        bi.isBranch = mi.isBranch();
        bi.isCall = mi.isCall();
        bi.isReturn = mi.isReturn();
        bi.isUncondDirect = mi.opcode == MacroOpcode::JMP;
        bi.isConditional = mi.opcode == MacroOpcode::JCC;
        bi.isIndirect = mi.opcode == MacroOpcode::JMP_R ||
                        mi.opcode == MacroOpcode::CALL_R;
        bi.fallthrough = fallthrough;

        corePtr->beginMacro(pc, ci.path, bi);

        // MCU interception: registered heap-function entry points.
        if (cap_variant) {
            if (auto entry_kind = msrs.entryAt(pc)) {
                interceptEntry(*entry_kind, pc);
                if (!running)
                    break;
            }
        }

        bool branch_taken = false;
        uint64_t branch_target = 0;

        for (const StaticUop &u :
             std::span(crackedUops).subspan(ci.first, ci.count)) {
            ++seq;

            // Effective address before execution (checks precede
            // the access).
            uint64_t ea =
                u.hasMem ? ms.effectiveAddr(u.mem) : 0;

            // Source tags for the hardware checker.
            Pid chk_src1 = NoPid, chk_src2 = NoPid;
            if (checkerPtr) {
                if (u.src1 != REG_NONE)
                    chk_src1 = trackerPtr->regPid(u.src1);
                if (u.src2 != REG_NONE && !u.useImm)
                    chk_src2 = trackerPtr->regPid(u.src2);
                if (u.type == UopType::Lea && u.mem.hasBase())
                    chk_src1 = trackerPtr->regPid(u.mem.base);
            }

            // Capability-check injection decision (decode time).
            unsigned lsu_check_lat = 0;
            if (u.isMemRef() && cap_variant && critical) {
                Pid base_pid = NoPid;
                if (u.mem.hasBase() && !u.mem.ripRelative)
                    base_pid = trackerPtr->regPid(u.mem.base);
                switch (kind) {
                  case VariantKind::MicrocodePrediction:
                    if (base_pid != NoPid)
                        injectCapCheck(base_pid, ea, u.memSize,
                                       u.isStore(), u.mem.base, pc);
                    break;
                  case VariantKind::MicrocodeAlwaysOn:
                    injectCapCheck(base_pid, ea, u.memSize,
                                   u.isStore(), u.mem.base, pc);
                    break;
                  case VariantKind::HardwareOnly: {
                    // Checks fold into the LSU and gate the access:
                    // their full latency — including shadow-table
                    // fills on capability-cache misses — sits on the
                    // load/store critical path.
                    CheckResult cr = capTable.check(
                        base_pid, ea, u.memSize, u.isStore());
                    lsu_check_lat = CapabilityCache::HitLatency;
                    if (base_pid != NoPid && base_pid != WildPid) {
                        if (!capCache.lookup(base_pid))
                            lsu_check_lat +=
                                hier.shadowAccess(capShadowAddr(base_pid));
                        intervalPids.insert(base_pid);
                    }
                    ++result.capChecksInjected;
                    if (!cr.ok()) {
                        raise(cr.violation, pc, ea, base_pid);
                    } else if (cfg.detectUninitializedReads &&
                               base_pid != NoPid &&
                               base_pid != WildPid) {
                        if (u.isStore())
                            capTable.markInitialized(base_pid, ea,
                                                     u.memSize);
                        else if (!capTable.isInitialized(base_pid, ea,
                                                         u.memSize))
                            raise(Violation::UninitializedRead, pc,
                                  ea, base_pid);
                    }
                    break;
                  }
                  case VariantKind::BinaryTranslation:
                    // Checked by the preceding synthetic macro.
                    break;
                  default:
                    break;
                }
                if (!running)
                    break;
            }

            // ASan functional detection on the program's own access.
            if (kind == VariantKind::Asan && u.isMemRef() &&
                heapAlloc.isPoisoned(ea, u.memSize)) {
                raise(Violation::OutOfBounds, pc, ea, NoPid);
                break;
            }

            // Oracle execution.
            UopEffect eff = ms.execute(u, mi.target);
            if (eff.isBranch) {
                branch_taken = eff.branchTaken;
                branch_target = eff.branchTarget;
            }

            // Speculative pointer tracking (front end).
            unsigned extra_lat = lsu_check_lat;
            bool charge_alias_flush = false;
            if (cap_variant) {
                TrackResult tr =
                    trackerPtr->processUop(u, pc, seq, eff.effAddr);
                if (tr.aliasLookupPerformed && !tr.aliasCacheHit) {
                    // Hardware walker traverses the 5-level shadow
                    // alias table. Upper levels hit in the walker's
                    // own cache (as in page-table walkers), so only
                    // the leaf access goes out, and the walk is off
                    // the load's critical path.
                    constexpr uint64_t AliasShadowBase =
                        0xffff900000000000ull;
                    hier.shadowAccess(AliasShadowBase +
                                      ((eff.effAddr >> 6) << 6));
                    extra_lat += 2;
                }
                switch (tr.aliasOutcome) {
                  case AliasOutcome::PNA0: {
                    // The check injected under the wrong prediction
                    // becomes a zero-idiom squashed at the IQ.
                    ++result.pna0ZeroIdioms;
                    ++result.zeroIdiomChecks;
                    StaticUop zi;
                    zi.type = UopType::CapCheck;
                    zi.synthetic = true;
                    UopTimingIn ztin;
                    ztin.uop = &zi;
                    ztin.zeroIdiom = true;
                    corePtr->addUop(ztin);
                    ++result.injectedUops;
                    break;
                  }
                  case AliasOutcome::P0AN:
                    ++result.p0anFlushes;
                    charge_alias_flush = true;
                    break;
                  case AliasOutcome::PMAN:
                    ++result.pmanForwards;
                    extra_lat += 1; // forward the corrected PID
                    break;
                  default:
                    break;
                }
                if (checkerPtr && !u.synthetic &&
                    u.dst != REG_NONE && !isFpReg(u.dst) &&
                    (u.type == UopType::IntAlu ||
                     u.type == UopType::Lea ||
                     u.type == UopType::LoadImm)) {
                    checkerPtr->observe(u, chk_src1, chk_src2,
                                        tr.dstPid, eff.value);
                }
            }

            UopTimingIn tin;
            tin.uop = &u;
            tin.effAddr = eff.effAddr;
            tin.extraLatency = extra_lat;
            uint64_t complete = corePtr->addUop(tin);
            if (charge_alias_flush)
                corePtr->chargeAliasFlush(complete);

            trackerPtr->commitUpTo(seq > 64 ? seq - 64 : 0);
        }
        if (!running)
            break;

        if (mi.opcode == MacroOpcode::INTRINSIC)
            applyIntrinsic(mi.intrinsic, pc);

        // MCU interception: registered exit points (the RET of a
        // heap function).
        if (cap_variant) {
            if (auto exit_kind = msrs.exitAt(pc)) {
                interceptExit(*exit_kind, pc);
                if (!running)
                    break;
            }
        }

        corePtr->endMacro(branch_taken, branch_target);
        pc = branch_taken ? branch_target : fallthrough;
    }
}

void
System::collectResult()
{
    const VariantKind kind = cfg.variant.kind;

    Core &core = *corePtr;
    result.cycles = core.cycles();
    result.macroOps = core.macroOps();
    result.uops = core.uops();
    result.ipc = core.ipc();
    result.seconds = core.secondsAt(cfg.core.frequencyGHz);
    result.squashCyclesBranch = core.squashCyclesBranch();
    result.squashCyclesAlias = core.squashCyclesAlias();
    result.squashFraction =
        result.cycles ? static_cast<double>(core.squashCyclesTotal()) /
                            result.cycles
                      : 0.0;
    result.branchMispredicts = core.branchMispredicts();

    result.capCacheMissRate = capCache.missRate();
    result.capCacheAccesses = capCache.accesses();

    auto &tracker = *trackerPtr;
    result.aliasCacheMissRate = tracker.aliasCache().missRate();
    result.aliasCacheAccesses = tracker.aliasCache().accesses();
    result.aliasPredAccuracy = tracker.predictor().accuracy();
    result.reloadMispredictionRate =
        tracker.predictor().reloadMispredictionRate();
    result.pointerSpills = tracker.pointerSpills();
    result.pointerReloads = tracker.pointerReloads();
    result.loads = tracker.loadsSeen();

    result.dramBytes = hier.traffic().total();
    result.bandwidthMBps =
        result.seconds > 0.0
            ? static_cast<double>(result.dramBytes) / 1e6 /
                  result.seconds
            : 0.0;

    result.residentBytes = mem.residentBytes();
    if (usesCapabilities(kind)) {
        result.shadowBytes =
            capTable.storageBytes() + aliases.storageBytes();
    } else if (kind == VariantKind::Asan) {
        result.shadowBytes = result.residentBytes / 8 +
                             heapAlloc.asanOverheadBytes();
    }
    result.footprintBytes = result.residentBytes + result.shadowBytes;

    result.totalAllocations = heapAlloc.totalAllocations();
    result.maxLiveAllocations = heapAlloc.maxLiveAllocations();
    if (intervalSamples > 0)
        result.avgAllocationsInUse =
            intervalPidSum / static_cast<double>(intervalSamples);
    else
        result.avgAllocationsInUse =
            static_cast<double>(intervalPids.size());
}

RunResult
System::run()
{
    if (!pausedFlag)
        beginRun();
    pausedFlag = false;
    stepLoop(UINT64_MAX);
    collectResult();
    return result;
}

bool
System::runMacros(uint64_t n)
{
    if (!pausedFlag)
        beginRun();
    pausedFlag = false;
    uint64_t stop = n < UINT64_MAX - macroCount ? macroCount + n
                                                : UINT64_MAX;
    stepLoop(stop);
    return pausedFlag;
}

namespace
{

constexpr const char *SnapshotFormat = "chex-snapshot-v2";

std::string
hashHex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** The Figure-3 interval PID set as an ascending list. */
template <typename T>
struct PidSet
{
    T &pids;

    json::Value encode() const { return json::encode(pids.sorted()); }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        pids.clear();
        return json::decodeAscending<Pid>(
            v,
            [this](const json::Value &item, Pid &pid, std::string *why) {
                if (!json::decode(item, pid, why))
                    return false;
                pids.insert(pid);
                return true;
            },
            why);
    }
};

/** A bit vector as the ascending indices of its set bits; reading
 * keeps its length and rejects an index past it. */
template <typename T>
struct SetBits
{
    T &bits;

    json::Value
    encode() const
    {
        json::Value out = json::Value::array();
        for (uint64_t i = 0; i < bits.size(); ++i)
            if (bits[i])
                out.push(i);
        return out;
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        bits.assign(bits.size(), false);
        return json::decodeAscending<uint64_t>(
            v,
            [this](const json::Value &item, uint64_t &i,
                   std::string *why) {
                if (!json::decode(item, i, why))
                    return false;
                if (i >= bits.size())
                    return json::reject(why, " is past the program");
                bits[i] = true;
                return true;
            },
            why);
    }
};

} // anonymous namespace

template <typename S, typename F>
void
System::snapshotFields(S &s, F &&f)
{
    f("format", json::Pinned{std::string(SnapshotFormat)});
    f("configHash",
      json::Pinned{hashHex(configHash(s.cfg)),
                   " does not match: configuration mismatch, the "
                   "snapshot was taken under a different SystemConfig"});
    f("programHash",
      json::Pinned{hashHex(programHash(s.prog)),
                   " does not match: program mismatch, the snapshot "
                   "was taken of a different program"});
    f("machine", json::Group{[&](auto &m) {
          m("seq", s.seq);
          m("macroCount", s.macroCount);
          m("pc", s.pc);
          m("pending", s.pending);
          m("intervalPids", PidSet{s.intervalPids});
          m("intervalMacros", s.intervalMacros);
          m("intervalSamples", s.intervalSamples);
          m("intervalPidSum", s.intervalPidSum);
          m("btTranslated", SetBits{s.btTranslated});
          // Result fields the run loop mutates in flight; everything
          // else in RunResult is derived by collectResult() at the end.
          m("result", json::Group{[&](auto &r) {
                r("violationDetected", s.result.violationDetected);
                r("violations", s.result.violations);
                r("injectedUops", s.result.injectedUops);
                r("capChecksInjected", s.result.capChecksInjected);
                r("zeroIdiomChecks", s.result.zeroIdiomChecks);
                r("pna0ZeroIdioms", s.result.pna0ZeroIdioms);
                r("p0anFlushes", s.result.p0anFlushes);
                r("pmanForwards", s.result.pmanForwards);
            }});
          m("ms", s.ms);
          m("mem", s.mem);
          m("hier", s.hier);
          m("core", *s.corePtr);
          m("heap", s.heapAlloc);
          m("capTable", s.capTable);
          m("capCache", s.capCache);
          m("aliases", s.aliases);
          m("tracker", *s.trackerPtr);
      }});
}

json::Value
System::saveSnapshot(std::string *err) const
{
    auto fail = [err](const char *why) {
        if (err)
            *err = why;
        return json::Value();
    };
    if (cfg.enableChecker)
        return fail("checker-enabled configs are not snapshottable");
    if (prog.code.empty())
        return fail("no program loaded");
    if (!pausedFlag)
        return fail("system is not paused mid-run");
    return json::encodeObject(
        [this](auto &f) { snapshotFields(*this, f); });
}

bool
System::restoreSnapshot(const json::Value &v, std::string *err)
{
    auto fail = [err](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (cfg.enableChecker)
        return fail("checker-enabled configs are not snapshottable");
    if (prog.code.empty())
        return fail("no program loaded");
    // A failed decode leaves the system unspecified; callers recover
    // by constructing a fresh System.
    result = RunResult{};
    std::string why;
    if (!json::decodeObject(
            v, [this](auto &f) { snapshotFields(*this, f); }, &why))
        return fail("snapshot: " + json::describe(why, "document"));
    running = true;
    pausedFlag = true;
    return true;
}

void
System::visitStats(const std::function<void(stats::StatGroup &)> &visit)
{
    stats::StatGroup root("system");

    stats::StatGroup core_group("core");
    Core &c = *corePtr;
    core_group.addFormula("cycles", "total cycles",
                          [&c]() { return double(c.cycles()); });
    core_group.addFormula("macroOps", "committed macro-ops",
                          [&c]() { return double(c.macroOps()); });
    core_group.addFormula("uops", "committed micro-ops",
                          [&c]() { return double(c.uops()); });
    core_group.addFormula("ipc", "micro-ops per cycle",
                          [&c]() { return c.ipc(); });
    core_group.addFormula("branchMispredicts", "branch mispredicts",
                          [&c]() {
                              return double(c.branchMispredicts());
                          });
    core_group.addFormula("squashCyclesBranch",
                          "fetch stall cycles from branch redirects",
                          [&c]() {
                              return double(c.squashCyclesBranch());
                          });
    core_group.addFormula("squashCyclesAlias",
                          "fetch stall cycles from P0AN flushes",
                          [&c]() {
                              return double(c.squashCyclesAlias());
                          });
    root.addChild(&core_group);

    stats::StatGroup cap_group("capabilities");
    cap_group.addFormula("total", "capabilities ever generated",
                         [this]() {
                             return double(capTable.totalCapabilities());
                         });
    cap_group.addFormula("live", "currently valid capabilities",
                         [this]() {
                             return double(capTable.liveCapabilities());
                         });
    cap_group.addFormula("cacheMissRate", "capability-cache misses",
                         [this]() { return capCache.missRate(); });
    cap_group.addFormula("checksInjected", "capCheck micro-ops",
                         [this]() {
                             return double(result.capChecksInjected);
                         });
    root.addChild(&cap_group);

    stats::StatGroup heap_group("heap");
    heapAlloc.regStats(heap_group);
    stats::StatGroup tracker_group("tracker");
    trackerPtr->regStats(tracker_group);
    stats::StatGroup alias_group("aliasCache.main");
    trackerPtr->aliasCache().main().regStats(alias_group);
    stats::StatGroup l1i_group("l1i");
    hier.l1i().regStats(l1i_group);
    stats::StatGroup l1d_group("l1d");
    hier.l1d().regStats(l1d_group);
    stats::StatGroup l2_group("l2");
    hier.l2().regStats(l2_group);
    for (stats::StatGroup *g : {&heap_group, &tracker_group, &alias_group,
                                &l1i_group, &l1d_group, &l2_group})
        root.addChild(g);

    visit(root);
}

void
System::dumpStats(std::ostream &os)
{
    visitStats([&os](stats::StatGroup &root) { root.dump(os); });
}

void
System::dumpStatsJson(std::ostream &os)
{
    visitStats([&os](stats::StatGroup &root) {
        root.dumpJson(os);
        os << "\n";
    });
}

} // namespace chex
