#include "decoder.hh"

#include "base/logging.hh"

namespace chex
{

namespace
{

StaticUop
alu(AluOp op, RegId dst, RegId src1, RegId src2)
{
    StaticUop u;
    u.type = UopType::IntAlu;
    u.op = op;
    u.dst = dst;
    u.src1 = src1;
    u.src2 = src2;
    return u;
}

StaticUop
alui(AluOp op, RegId dst, RegId src1, int64_t imm)
{
    StaticUop u;
    u.type = UopType::IntAlu;
    u.op = op;
    u.dst = dst;
    u.src1 = src1;
    u.imm = imm;
    u.useImm = true;
    return u;
}

StaticUop
limm(RegId dst, int64_t imm, bool synthetic = false)
{
    StaticUop u;
    u.type = UopType::LoadImm;
    u.op = AluOp::Mov;
    u.dst = dst;
    u.imm = imm;
    u.useImm = true;
    u.synthetic = synthetic;
    return u;
}

StaticUop
load(RegId dst, const MemOperand &mem, uint8_t size)
{
    StaticUop u;
    u.type = UopType::Load;
    u.dst = dst;
    u.mem = mem;
    u.hasMem = true;
    u.memSize = size;
    return u;
}

StaticUop
store(RegId src, const MemOperand &mem, uint8_t size)
{
    StaticUop u;
    u.type = UopType::Store;
    u.src1 = src;
    u.mem = mem;
    u.hasMem = true;
    u.memSize = size;
    return u;
}

StaticUop
leaUop(RegId dst, const MemOperand &mem)
{
    StaticUop u;
    u.type = UopType::Lea;
    u.dst = dst;
    u.mem = mem;
    u.hasMem = true; // address expression only; no access
    return u;
}

StaticUop
branch(CondCode cc)
{
    StaticUop u;
    u.type = UopType::Branch;
    u.cc = cc;
    if (cc != CondCode::None)
        u.src1 = FLAGS;
    return u;
}

StaticUop
branchInd(RegId target)
{
    StaticUop u;
    u.type = UopType::Branch;
    u.src1 = target;
    u.indirect = true;
    return u;
}

StaticUop
fp(UopType type, AluOp op, RegId dst, RegId src1, RegId src2)
{
    StaticUop u;
    u.type = type;
    u.op = op;
    u.dst = dst;
    u.src1 = src1;
    u.src2 = src2;
    return u;
}

MemOperand
rspMem(int64_t disp)
{
    MemOperand m;
    m.base = RSP;
    m.disp = disp;
    return m;
}

} // anonymous namespace

unsigned
Decoder::intrinsicUopCount(IntrinsicKind kind)
{
    // MSROM scaffold lengths model the dynamic work of the runtime
    // routine bodies (allocator bookkeeping, loops). Memory traffic
    // is added dynamically by the CPU from the handler's touch list.
    switch (kind) {
      case IntrinsicKind::Malloc: return 36;
      case IntrinsicKind::Calloc: return 44;
      case IntrinsicKind::Realloc: return 52;
      case IntrinsicKind::Free: return 30;
      case IntrinsicKind::Memcpy: return 12;
      case IntrinsicKind::Memset: return 10;
      case IntrinsicKind::Strcpy: return 12;
      case IntrinsicKind::PrintVal: return 6;
      default: return 4;
    }
}

CrackedInst
Decoder::crack(const MacroInst &inst, uint64_t addr,
               std::vector<StaticUop> &u)
{
    CrackedInst out;
    out.first = static_cast<uint32_t>(u.size());

    switch (inst.opcode) {
      case MacroOpcode::NOP:
      case MacroOpcode::HLT:
        u.push_back(StaticUop{});
        break;

      case MacroOpcode::MOV_RR:
        u.push_back(alu(AluOp::Mov, inst.dst, inst.src, REG_NONE));
        break;
      case MacroOpcode::MOV_RI:
        u.push_back(limm(inst.dst, inst.imm));
        break;
      case MacroOpcode::MOV_RM:
        u.push_back(load(inst.dst, inst.mem, inst.size));
        break;
      case MacroOpcode::MOV_MR:
        u.push_back(store(inst.src, inst.mem, inst.size));
        break;
      case MacroOpcode::MOV_MI:
        u.push_back(limm(T0, inst.imm, true));
        u.push_back(store(T0, inst.mem, inst.size));
        break;
      case MacroOpcode::LEA:
        u.push_back(leaUop(inst.dst, inst.mem));
        break;
      case MacroOpcode::PUSH_R:
        u.push_back(alui(AluOp::Sub, RSP, RSP, 8));
        u.push_back(store(inst.src, rspMem(0), 8));
        break;
      case MacroOpcode::POP_R:
        u.push_back(load(inst.dst, rspMem(0), 8));
        u.push_back(alui(AluOp::Add, RSP, RSP, 8));
        break;
      case MacroOpcode::XCHG_RR:
        u.push_back(alu(AluOp::Mov, T0, inst.dst, REG_NONE));
        u.push_back(alu(AluOp::Mov, inst.dst, inst.src, REG_NONE));
        u.push_back(alu(AluOp::Mov, inst.src, T0, REG_NONE));
        break;

      case MacroOpcode::ADD_RR:
        u.push_back(alu(AluOp::Add, inst.dst, inst.dst, inst.src));
        break;
      case MacroOpcode::ADD_RI:
        u.push_back(alui(AluOp::Add, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::ADD_RM:
        u.push_back(load(T0, inst.mem, inst.size));
        u.push_back(alu(AluOp::Add, inst.dst, inst.dst, T0));
        break;
      case MacroOpcode::ADD_MR:
        u.push_back(load(T0, inst.mem, inst.size));
        u.push_back(alu(AluOp::Add, T0, T0, inst.src));
        u.push_back(store(T0, inst.mem, inst.size));
        break;
      case MacroOpcode::ADD_MI:
        u.push_back(load(T0, inst.mem, inst.size));
        u.push_back(alui(AluOp::Add, T0, T0, inst.imm));
        u.push_back(store(T0, inst.mem, inst.size));
        break;
      case MacroOpcode::SUB_RR:
        u.push_back(alu(AluOp::Sub, inst.dst, inst.dst, inst.src));
        break;
      case MacroOpcode::SUB_RI:
        u.push_back(alui(AluOp::Sub, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::AND_RR:
        u.push_back(alu(AluOp::And, inst.dst, inst.dst, inst.src));
        break;
      case MacroOpcode::AND_RI:
        u.push_back(alui(AluOp::And, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::OR_RR:
        u.push_back(alu(AluOp::Or, inst.dst, inst.dst, inst.src));
        break;
      case MacroOpcode::OR_RI:
        u.push_back(alui(AluOp::Or, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::XOR_RR:
        u.push_back(alu(AluOp::Xor, inst.dst, inst.dst, inst.src));
        break;
      case MacroOpcode::XOR_RI:
        u.push_back(alui(AluOp::Xor, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::SHL_RI:
        u.push_back(alui(AluOp::Shl, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::SHR_RI:
        u.push_back(alui(AluOp::Shr, inst.dst, inst.dst, inst.imm));
        break;
      case MacroOpcode::IMUL_RR: {
        StaticUop m = alu(AluOp::Mul, inst.dst, inst.dst, inst.src);
        m.type = UopType::IntMult;
        u.push_back(m);
        break;
      }
      case MacroOpcode::IMUL_RI: {
        StaticUop m = alui(AluOp::Mul, inst.dst, inst.dst, inst.imm);
        m.type = UopType::IntMult;
        u.push_back(m);
        break;
      }
      case MacroOpcode::INC_M:
        u.push_back(load(T0, inst.mem, inst.size));
        u.push_back(alui(AluOp::Add, T0, T0, 1));
        u.push_back(store(T0, inst.mem, inst.size));
        break;
      case MacroOpcode::DEC_M:
        u.push_back(load(T0, inst.mem, inst.size));
        u.push_back(alui(AluOp::Sub, T0, T0, 1));
        u.push_back(store(T0, inst.mem, inst.size));
        break;

      case MacroOpcode::CMP_RR:
        u.push_back(alu(AluOp::Cmp, FLAGS, inst.dst, inst.src));
        break;
      case MacroOpcode::CMP_RI:
        u.push_back(alui(AluOp::Cmp, FLAGS, inst.dst, inst.imm));
        break;
      case MacroOpcode::CMP_RM:
        u.push_back(load(T0, inst.mem, inst.size));
        u.push_back(alu(AluOp::Cmp, FLAGS, inst.dst, T0));
        break;
      case MacroOpcode::TEST_RR:
        u.push_back(alu(AluOp::Test, FLAGS, inst.dst, inst.src));
        break;
      case MacroOpcode::TEST_RI:
        u.push_back(alui(AluOp::Test, FLAGS, inst.dst, inst.imm));
        break;

      case MacroOpcode::FMOV_RR:
        u.push_back(fp(UopType::FpAlu, AluOp::Mov, inst.dst, inst.src,
                       REG_NONE));
        break;
      case MacroOpcode::FMOV_RM:
        u.push_back(load(inst.dst, inst.mem, 8));
        break;
      case MacroOpcode::FMOV_MR:
        u.push_back(store(inst.src, inst.mem, 8));
        break;
      case MacroOpcode::FADD_RR:
        u.push_back(fp(UopType::FpAlu, AluOp::FAdd, inst.dst, inst.dst,
                       inst.src));
        break;
      case MacroOpcode::FMUL_RR:
        u.push_back(fp(UopType::FpMult, AluOp::FMul, inst.dst, inst.dst,
                       inst.src));
        break;
      case MacroOpcode::FDIV_RR:
        u.push_back(fp(UopType::FpDiv, AluOp::FDiv, inst.dst, inst.dst,
                       inst.src));
        break;
      case MacroOpcode::FCVT_RI:
        u.push_back(fp(UopType::FpAlu, AluOp::FCvt, inst.dst, inst.src,
                       REG_NONE));
        break;

      case MacroOpcode::JMP:
        u.push_back(branch(CondCode::None));
        break;
      case MacroOpcode::JMP_R:
        u.push_back(branchInd(inst.src));
        break;
      case MacroOpcode::JCC:
        u.push_back(branch(inst.cc));
        break;
      case MacroOpcode::CALL:
        u.push_back(limm(T3, static_cast<int64_t>(addr + InstSlotBytes),
                         true));
        u.push_back(alui(AluOp::Sub, RSP, RSP, 8));
        u.push_back(store(T3, rspMem(0), 8));
        u.push_back(branch(CondCode::None));
        break;
      case MacroOpcode::CALL_R:
        u.push_back(limm(T3, static_cast<int64_t>(addr + InstSlotBytes),
                         true));
        u.push_back(alui(AluOp::Sub, RSP, RSP, 8));
        u.push_back(store(T3, rspMem(0), 8));
        u.push_back(branchInd(inst.src));
        break;
      case MacroOpcode::RET:
        u.push_back(load(T0, rspMem(0), 8));
        u.push_back(alui(AluOp::Add, RSP, RSP, 8));
        u.push_back(branchInd(T0));
        break;

      case MacroOpcode::INTRINSIC: {
        // MSROM scaffold: serial dependence chain standing in for the
        // routine's internal control/dataflow. The final micro-op
        // carries the architectural result into %rax.
        unsigned n = intrinsicUopCount(inst.intrinsic);
        u.push_back(alu(AluOp::Mov, T0, RDI, REG_NONE));
        for (unsigned i = 0; i + 2 < n; ++i) {
            StaticUop s = alui(AluOp::Add, T0, T0, 1);
            s.synthetic = true;
            u.push_back(s);
        }
        StaticUop fin = alu(AluOp::Mov, RAX, T0, REG_NONE);
        fin.synthetic = true;
        u.push_back(fin);
        break;
      }

      default:
        chex_panic("crack: unhandled opcode %d",
                   static_cast<int>(inst.opcode));
    }

    out.count = static_cast<uint32_t>(u.size() - out.first);
    if (out.count == 1)
        out.path = DecodePath::Simple;
    else if (out.count <= 4)
        out.path = DecodePath::Complex;
    else
        out.path = DecodePath::Msrom;
    return out;
}

} // namespace chex
