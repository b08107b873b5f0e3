/**
 * @file
 * Rule-database tests: Table I construction, per-rule propagation
 * semantics, the MOVI wild-pointer rule, default-clear behaviour for
 * unmatched operations, and that a checker's installs never reach
 * the Table I that every other System shares.
 */

#include <gtest/gtest.h>

#include <thread>
#include <tuple>
#include <vector>

#include "sim/system.hh"
#include "tracker/rules.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace
{

StaticUop
aluUop(AluOp op, bool use_imm = false)
{
    StaticUop u;
    u.type = UopType::IntAlu;
    u.op = op;
    u.dst = RCX;
    u.src1 = RBX;
    u.src2 = use_imm ? REG_NONE : RAX;
    u.useImm = use_imm;
    return u;
}

TEST(Rules, TableIHasElevenRules)
{
    RuleDatabase db = RuleDatabase::tableI();
    EXPECT_EQ(db.size(), 11u);
}

TEST(Rules, MovCopiesSource)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u = aluUop(AluOp::Mov);
    EXPECT_EQ(db.propagate(u, 42, 0), 42u);
}

TEST(Rules, AddRegRegCopiesNonZero)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u = aluUop(AluOp::Add);
    EXPECT_EQ(db.propagate(u, 42, 0), 42u);  // ptr + int
    EXPECT_EQ(db.propagate(u, 0, 42), 42u);  // int + ptr
    EXPECT_EQ(db.propagate(u, 0, 0), NoPid); // int + int
    // Both tagged: first source wins.
    EXPECT_EQ(db.propagate(u, 7, 9), 7u);
}

TEST(Rules, AddImmCopiesFirst)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u = aluUop(AluOp::Add, true);
    u.imm = 8;
    EXPECT_EQ(db.propagate(u, 42, 0), 42u);
}

TEST(Rules, SubAlwaysCopiesMinuend)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u = aluUop(AluOp::Sub);
    // Even when the subtrahend is tagged: ptr1 - ptr2 is a distance,
    // but Table I keeps the first operand's tag.
    EXPECT_EQ(db.propagate(u, 42, 7), 42u);
    EXPECT_EQ(db.propagate(u, 0, 7), NoPid);
}

TEST(Rules, AndMasksPropagate)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop rr = aluUop(AluOp::And);
    EXPECT_EQ(db.propagate(rr, 0, 5), 5u);
    StaticUop ri = aluUop(AluOp::And, true);
    EXPECT_EQ(db.propagate(ri, 5, 0), 5u);
}

TEST(Rules, LeaCopiesBase)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u;
    u.type = UopType::Lea;
    u.dst = RCX;
    u.hasMem = true;
    u.mem.base = RBX;
    EXPECT_EQ(db.lookup(u), RuleAction::CopySrc1);
    EXPECT_EQ(db.propagate(u, 42, 0), 42u);
}

TEST(Rules, MoviAssignsWild)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u;
    u.type = UopType::LoadImm;
    u.op = AluOp::Mov;
    u.dst = RAX;
    u.imm = 0x7fff1000;
    u.useImm = true;
    EXPECT_EQ(db.propagate(u, 0, 0), WildPid);
}

TEST(Rules, SyntheticImmediatesStayClean)
{
    // The CALL return-address limm must not become a wild pointer.
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u;
    u.type = UopType::LoadImm;
    u.op = AluOp::Mov;
    u.dst = T3;
    u.useImm = true;
    u.synthetic = true;
    EXPECT_EQ(db.propagate(u, 0, 0), NoPid);
}

TEST(Rules, LoadStoreResolveThroughAliasMachinery)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop ld;
    ld.type = UopType::Load;
    ld.dst = RCX;
    ld.hasMem = true;
    EXPECT_EQ(db.lookup(ld), RuleAction::LoadAlias);
    StaticUop st;
    st.type = UopType::Store;
    st.src1 = RCX;
    st.hasMem = true;
    EXPECT_EQ(db.lookup(st), RuleAction::StoreAlias);
}

TEST(Rules, UnmatchedOpsClear)
{
    RuleDatabase db = RuleDatabase::tableI();
    // "All other operations: PID(result) <- PID(0)".
    StaticUop u = aluUop(AluOp::Xor);
    EXPECT_EQ(db.propagate(u, 42, 42), NoPid);
    StaticUop mul = aluUop(AluOp::Mul);
    mul.type = UopType::IntMult;
    EXPECT_EQ(db.propagate(mul, 42, 0), NoPid);
}

TEST(Rules, EmptyDatabaseClearsEverything)
{
    RuleDatabase db;
    StaticUop u = aluUop(AluOp::Mov);
    EXPECT_EQ(db.propagate(u, 42, 0), NoPid);
    EXPECT_EQ(db.size(), 0u);
}

TEST(Rules, InstallAndReplace)
{
    RuleDatabase db;
    StaticUop u = aluUop(AluOp::Xor);
    TrackRule rule;
    rule.key = ruleKeyFor(u);
    rule.action = RuleAction::CopySrc1;
    db.install(rule);
    EXPECT_EQ(db.propagate(u, 5, 0), 5u);
    rule.action = RuleAction::Clear;
    db.install(rule); // replace
    EXPECT_EQ(db.propagate(u, 5, 0), NoPid);
    EXPECT_EQ(db.size(), 1u);
}

TEST(Rules, KeyClassification)
{
    StaticUop rr = aluUop(AluOp::Add);
    EXPECT_EQ(ruleKeyFor(rr).form, OperandForm::RegReg);
    StaticUop ri = aluUop(AluOp::Add, true);
    EXPECT_EQ(ruleKeyFor(ri).form, OperandForm::RegImm);
    StaticUop ld;
    ld.type = UopType::Load;
    ld.hasMem = true;
    EXPECT_EQ(ruleKeyFor(ld).form, OperandForm::Mem);
}

TEST(Rules, RulesListIsDocumented)
{
    // Every Table I rule carries its micro-op and C-level examples
    // (the bench regenerating Table I prints these).
    for (const auto &rule : RuleDatabase::tableI().rules()) {
        EXPECT_FALSE(rule.example.empty());
        EXPECT_FALSE(rule.codeExample.empty());
        EXPECT_TRUE(rule.expertSeeded);
    }
}

using RuleRow = std::tuple<RuleKey, RuleAction, bool>;

/** What a database matches on and does, rule by rule. */
std::vector<RuleRow>
ruleRows(const RuleDatabase &db)
{
    std::vector<RuleRow> rows;
    for (const TrackRule &r : db.rules())
        rows.emplace_back(r.key, r.action, r.expertSeeded);
    return rows;
}

/**
 * Run a checker System (seeded with MOV and LD/ST only) to its end;
 * the number of rules its checker installed.
 */
size_t
runCheckerSystem()
{
    SystemConfig cfg;
    cfg.variant.haltOnViolation = false;
    cfg.useTableIRules = false;
    cfg.enableChecker = true;
    System sys(cfg);
    sys.load(generateWorkload(profileByName("mcf").scaledBy(40), 1));
    sys.run();
    return sys.checker()->constructedRules().size();
}

TEST(Rules, CheckerInstallsStayInTheirSystem)
{
    const std::vector<RuleRow> table_i = ruleRows(RuleDatabase::tableI());
    ASSERT_EQ(table_i.size(), 11u);

    System alive{SystemConfig{}};
    ASSERT_GT(runCheckerSystem(), 0u);
    EXPECT_EQ(ruleRows(alive.tracker().ruleDatabase()), table_i);

    System after{SystemConfig{}};
    EXPECT_EQ(ruleRows(after.tracker().ruleDatabase()), table_i);
    EXPECT_EQ(ruleRows(RuleDatabase::tableI()), table_i);
}

TEST(Rules, CheckerInstallsStayInTheirSystemAcrossThreads)
{
    // Each thread alternates checker and Table I Systems, so installs
    // and copies of the shared Table I run at the same time.
    const std::vector<RuleRow> table_i = ruleRows(RuleDatabase::tableI());
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> threads;
    for (int &bad : mismatches) {
        threads.emplace_back([&table_i, &bad] {
            for (int round = 0; round < 3; ++round) {
                System plain{SystemConfig{}};
                if (runCheckerSystem() == 0)
                    ++bad;
                if (ruleRows(plain.tracker().ruleDatabase()) != table_i)
                    ++bad;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches, std::vector<int>(4, 0));
    EXPECT_EQ(ruleRows(RuleDatabase::tableI()), table_i);
}

} // namespace
} // namespace chex
