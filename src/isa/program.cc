#include "program.hh"

#include "base/fnv.hh"
#include "base/logging.hh"

namespace chex
{

size_t
Program::indexOf(uint64_t addr) const
{
    if (!inText(addr) || (addr - codeBase) % InstSlotBytes != 0)
        return SIZE_MAX;
    return (addr - codeBase) / InstSlotBytes;
}

const MacroInst &
Program::fetch(uint64_t addr) const
{
    size_t idx = indexOf(addr);
    chex_assert(idx != SIZE_MAX, "fetch outside text section");
    return code[idx];
}

const RuntimeFunc *
Program::findRuntime(IntrinsicKind kind) const
{
    for (const auto &f : runtimeFuncs)
        if (f.kind == kind)
            return &f;
    return nullptr;
}

const Symbol *
Program::findSymbol(const std::string &name) const
{
    for (const auto &s : symbols)
        if (s.name == name)
            return &s;
    return nullptr;
}

uint64_t
programHash(const Program &prog)
{
    TaggedHasher h;
    h.u64("codeBase"_tag, prog.codeBase);
    h.u64("entryPoint"_tag, prog.entryPoint);
    h.u64("dataSize"_tag, prog.dataSize);
    h.u64("code.count"_tag, prog.code.size());
    for (const MacroInst &mi : prog.code) {
        h.u64("inst.opcode"_tag, static_cast<uint64_t>(mi.opcode));
        h.u64("inst.dst"_tag, static_cast<uint64_t>(mi.dst));
        h.u64("inst.src"_tag, static_cast<uint64_t>(mi.src));
        h.u64("inst.mem.base"_tag, static_cast<uint64_t>(mi.mem.base));
        h.u64("inst.mem.index"_tag, static_cast<uint64_t>(mi.mem.index));
        h.u64("inst.mem.scale"_tag, mi.mem.scale);
        h.u64("inst.mem.disp"_tag, static_cast<uint64_t>(mi.mem.disp));
        h.u64("inst.mem.ripRelative"_tag, mi.mem.ripRelative);
        h.u64("inst.imm"_tag, static_cast<uint64_t>(mi.imm));
        h.u64("inst.size"_tag, mi.size);
        h.u64("inst.cc"_tag, static_cast<uint64_t>(mi.cc));
        h.u64("inst.target"_tag, mi.target);
        h.u64("inst.intrinsic"_tag, static_cast<uint64_t>(mi.intrinsic));
    }
    h.u64("symbols.count"_tag, prog.symbols.size());
    for (const Symbol &s : prog.symbols) {
        h.str("symbol.name"_tag, s.name);
        h.u64("symbol.addr"_tag, s.addr);
        h.u64("symbol.size"_tag, s.size);
    }
    h.u64("pool.count"_tag, prog.pool.size());
    for (const PoolSlot &p : prog.pool) {
        h.u64("pool.addr"_tag, p.addr);
        h.u64("pool.value"_tag, p.value);
        h.str("pool.refSymbol"_tag, p.refSymbol);
    }
    h.u64("runtimeFuncs.count"_tag, prog.runtimeFuncs.size());
    for (const RuntimeFunc &f : prog.runtimeFuncs) {
        h.u64("runtime.kind"_tag, static_cast<uint64_t>(f.kind));
        h.u64("runtime.entryAddr"_tag, f.entryAddr);
        h.u64("runtime.exitAddr"_tag, f.exitAddr);
    }
    h.u64("initData.count"_tag, prog.initData.size());
    for (const InitBlob &b : prog.initData) {
        h.u64("blob.addr"_tag, b.addr);
        h.u64("blob.len"_tag, b.bytes.size());
        h.bytes(b.bytes.data(), b.bytes.size());
    }
    return h.digest();
}

} // namespace chex
