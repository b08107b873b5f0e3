/**
 * @file
 * ISA-layer tests: macro-instruction predicates, assembler label
 * resolution and runtime-stub emission, decoder cracking rules
 * (Figure 5's micro-code sequences), and FLAGS condition encoding.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/decoder.hh"
#include "isa/program.hh"
#include "isa/uops.hh"

namespace chex
{
namespace
{

TEST(Insts, LoadStorePredicates)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::MOV_RM;
    EXPECT_TRUE(mi.isLoad());
    EXPECT_FALSE(mi.isStore());
    mi.opcode = MacroOpcode::MOV_MR;
    EXPECT_TRUE(mi.isStore());
    mi.opcode = MacroOpcode::INC_M;
    EXPECT_TRUE(mi.isLoad());
    EXPECT_TRUE(mi.isStore());
    mi.opcode = MacroOpcode::CALL;
    EXPECT_TRUE(mi.isBranch());
    EXPECT_TRUE(mi.isStore()); // pushes the return address
    mi.opcode = MacroOpcode::RET;
    EXPECT_TRUE(mi.isLoad());
    EXPECT_TRUE(mi.isReturn());
}

TEST(Flags, EncodeAndTest)
{
    uint64_t f = encodeFlags(5, 5);
    EXPECT_TRUE(testCond(f, CondCode::EQ));
    EXPECT_FALSE(testCond(f, CondCode::NE));
    EXPECT_TRUE(testCond(f, CondCode::GE));
    EXPECT_TRUE(testCond(f, CondCode::LE));

    f = encodeFlags(static_cast<uint64_t>(-1), 1);
    EXPECT_TRUE(testCond(f, CondCode::LT));  // signed
    EXPECT_TRUE(testCond(f, CondCode::A));   // unsigned above

    f = encodeFlags(1, 2);
    EXPECT_TRUE(testCond(f, CondCode::B));
    EXPECT_TRUE(testCond(f, CondCode::LT));
    EXPECT_FALSE(testCond(f, CondCode::EQ));
}

TEST(Assembler, LabelsResolveForwardsAndBackwards)
{
    Assembler as;
    auto fwd = as.newLabel();
    auto back = as.newLabel();
    as.bind(back);
    as.nop();
    as.jmp(fwd);
    as.jmp(back);
    as.bind(fwd);
    as.hlt();
    Program p = as.finalize();
    // inst1 = jmp fwd (target = inst 3), inst2 = jmp back (inst 0).
    EXPECT_EQ(p.code[1].target, p.addrOf(3));
    EXPECT_EQ(p.code[2].target, p.addrOf(0));
}

TEST(Assembler, RuntimeStubsEmittedOncePerKind)
{
    Assembler as;
    as.call(IntrinsicKind::Malloc);
    as.call(IntrinsicKind::Malloc);
    as.call(IntrinsicKind::Free);
    as.hlt();
    Program p = as.finalize();
    EXPECT_EQ(p.runtimeFuncs.size(), 2u);
    const RuntimeFunc *m = p.findRuntime(IntrinsicKind::Malloc);
    ASSERT_NE(m, nullptr);
    // Stub = INTRINSIC + RET.
    EXPECT_EQ(p.fetch(m->entryAddr).opcode, MacroOpcode::INTRINSIC);
    EXPECT_EQ(p.fetch(m->exitAddr).opcode, MacroOpcode::RET);
    // Both calls resolve to the same stub.
    EXPECT_EQ(p.code[0].target, m->entryAddr);
    EXPECT_EQ(p.code[1].target, m->entryAddr);
}

TEST(Assembler, LibraryBodiesAreRealCode)
{
    Assembler as;
    as.call(IntrinsicKind::Strcpy);
    as.hlt();
    Program p = as.finalize();
    const RuntimeFunc *f = p.findRuntime(IntrinsicKind::Strcpy);
    ASSERT_NE(f, nullptr);
    // The body is a loop of real instructions, not an INTRINSIC.
    EXPECT_NE(p.fetch(f->entryAddr).opcode, MacroOpcode::INTRINSIC);
    EXPECT_EQ(p.fetch(f->exitAddr).opcode, MacroOpcode::RET);
    EXPECT_GT(f->exitAddr, f->entryAddr + 3 * InstSlotBytes);
}

TEST(Assembler, GlobalsAndPool)
{
    Assembler as;
    uint64_t a = as.addGlobal("a", 100);
    uint64_t b = as.addGlobal("b", 8);
    EXPECT_EQ(a, layout::DataBase);
    EXPECT_EQ(b, layout::DataBase + 104); // rounded to 8
    uint64_t slot = as.poolSlotFor("a");
    EXPECT_EQ(slot, layout::PoolBase);
    EXPECT_EQ(as.poolSlotFor("a"), slot); // idempotent
    as.hlt();
    Program p = as.finalize();
    ASSERT_EQ(p.pool.size(), 1u);
    EXPECT_EQ(p.pool[0].value, a);
    EXPECT_EQ(p.findSymbol("b")->size, 8u);
}

TEST(Decoder, SimpleOpsAreOneUop)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::ADD_RR;
    mi.dst = RAX;
    mi.src = RBX;
    std::vector<StaticUop> u;
    CrackedInst ci = Decoder::crack(mi, 0x400000, u);
    ASSERT_EQ(u.size(), 1u);
    EXPECT_EQ(ci.path, DecodePath::Simple);
    EXPECT_EQ(u[0].op, AluOp::Add);
    EXPECT_EQ(u[0].src1, RAX);
    EXPECT_EQ(u[0].src2, RBX);
}

TEST(Decoder, IncMemCracksToLdAddSt)
{
    // Figure 5(f): inc (%rax) -> ld t1,(%rax); add t1,t1,1; st t1.
    MacroInst mi;
    mi.opcode = MacroOpcode::INC_M;
    mi.mem = memAt(RAX);
    std::vector<StaticUop> u;
    CrackedInst ci = Decoder::crack(mi, 0x400000, u);
    ASSERT_EQ(u.size(), 3u);
    EXPECT_EQ(ci.path, DecodePath::Complex);
    EXPECT_EQ(u[0].type, UopType::Load);
    EXPECT_EQ(u[1].type, UopType::IntAlu);
    EXPECT_TRUE(u[1].useImm);
    EXPECT_EQ(u[2].type, UopType::Store);
}

TEST(Decoder, CallCracksWithReturnAddress)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::CALL;
    mi.target = 0x400100;
    std::vector<StaticUop> u;
    Decoder::crack(mi, 0x400010, u);
    ASSERT_EQ(u.size(), 4u);
    // limm of the return address is decoder-internal (synthetic).
    EXPECT_EQ(u[0].type, UopType::LoadImm);
    EXPECT_TRUE(u[0].synthetic);
    EXPECT_EQ(u[0].imm, 0x400014);
    EXPECT_TRUE(u[3].isBranch());
}

TEST(Decoder, RetCracksToLoadAddBranch)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::RET;
    std::vector<StaticUop> u;
    Decoder::crack(mi, 0x400000, u);
    ASSERT_EQ(u.size(), 3u);
    EXPECT_EQ(u[0].type, UopType::Load);
    EXPECT_TRUE(u[2].indirect);
}

TEST(Decoder, MovImmediateIsNotSynthetic)
{
    // The programmer-visible load-immediate must be eligible for the
    // MOVI wild-pointer rule.
    MacroInst mi;
    mi.opcode = MacroOpcode::MOV_RI;
    mi.dst = RAX;
    mi.imm = 0x7fff1000;
    std::vector<StaticUop> u;
    Decoder::crack(mi, 0x400000, u);
    ASSERT_EQ(u.size(), 1u);
    EXPECT_EQ(u[0].type, UopType::LoadImm);
    EXPECT_FALSE(u[0].synthetic);
}

TEST(Decoder, IntrinsicUsesMsrom)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::INTRINSIC;
    mi.intrinsic = IntrinsicKind::Malloc;
    std::vector<StaticUop> u;
    CrackedInst ci = Decoder::crack(mi, 0x400000, u);
    EXPECT_EQ(ci.path, DecodePath::Msrom);
    EXPECT_EQ(u.size(),
              Decoder::intrinsicUopCount(IntrinsicKind::Malloc));
    // The final micro-op deposits the result into %rax.
    EXPECT_EQ(u.back().dst, RAX);
}

TEST(Decoder, AllOpcodesCrack)
{
    // Property: every opcode (except NUM_OPCODES) cracks without
    // panicking and yields at least one micro-op, appended right
    // after the previous instruction's.
    std::vector<StaticUop> u;
    for (int op = 0;
         op < static_cast<int>(MacroOpcode::NUM_OPCODES); ++op) {
        MacroInst mi;
        mi.opcode = static_cast<MacroOpcode>(op);
        mi.dst = RAX;
        mi.src = RBX;
        mi.mem = memAt(RCX, 8);
        mi.intrinsic = IntrinsicKind::Malloc;
        size_t before = u.size();
        CrackedInst ci = Decoder::crack(mi, 0x400000, u);
        EXPECT_EQ(ci.first, before) << opcodeName(mi.opcode);
        EXPECT_GE(ci.count, 1u) << opcodeName(mi.opcode);
        EXPECT_EQ(u.size(), before + ci.count) << opcodeName(mi.opcode);
    }
}

TEST(Program, FetchAndIndex)
{
    Assembler as;
    as.nop();
    as.hlt();
    Program p = as.finalize();
    EXPECT_EQ(p.indexOf(p.codeBase), 0u);
    EXPECT_EQ(p.indexOf(p.codeBase + 4), 1u);
    EXPECT_EQ(p.indexOf(p.codeBase + 2), SIZE_MAX);     // misaligned
    EXPECT_EQ(p.indexOf(p.codeBase + 4000), SIZE_MAX);  // outside
    EXPECT_TRUE(p.inText(p.codeBase));
    EXPECT_FALSE(p.inText(p.codeBase - 4));
}

TEST(Insts, ToStringProducesReadableText)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::MOV_RM;
    mi.dst = RAX;
    mi.mem = memAt(RBX, 16);
    std::string s = mi.toString();
    EXPECT_NE(s.find("%rax"), std::string::npos);
    EXPECT_NE(s.find("%rbx"), std::string::npos);
}

} // namespace
} // namespace chex
