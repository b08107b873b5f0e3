#include "rules.hh"

#include "base/logging.hh"

namespace chex
{

const char *
ruleActionName(RuleAction action)
{
    switch (action) {
      case RuleAction::Clear: return "PID(result) <- PID(0)";
      case RuleAction::CopySrc1: return "PID(dst) <- PID(src1)";
      case RuleAction::CopySrc2: return "PID(dst) <- PID(src2)";
      case RuleAction::CopyNonZero:
        return "if one source PID is zero, copy the other";
      case RuleAction::LoadAlias: return "PID(dst) <- PID(Mem[EA])";
      case RuleAction::StoreAlias: return "PID(Mem[EA]) <- PID(src)";
      case RuleAction::AssignWild: return "PID(dst) <- PID(-1)";
      default: return "???";
    }
}

RuleKey
ruleKeyFor(const StaticUop &uop)
{
    // LEA carries a memory *operand* (whose base the rule follows)
    // without performing an access; it classifies as Mem form.
    bool mem_form = uop.isMemRef() || uop.type == UopType::Lea;
    OperandForm form = OperandForm::RegReg;
    if (mem_form)
        form = OperandForm::Mem;
    else if (uop.useImm)
        form = OperandForm::RegImm;
    return {uop.type, mem_form ? AluOp::None : uop.op, form};
}

void
RuleDatabase::install(const TrackRule &rule)
{
    auto copy = std::make_shared<RuleMap>(*byKey);
    (*copy)[rule.key] = rule;
    byKey = std::move(copy);
    actions[flatIndex(rule.key)] = rule.action;
}

RuleAction
RuleDatabase::lookup(const StaticUop &uop) const
{
    return actions[flatIndex(ruleKeyFor(uop))];
}

bool
RuleDatabase::has(const RuleKey &key) const
{
    return byKey->count(key) != 0;
}

Pid
RuleDatabase::propagate(const StaticUop &uop, Pid src1_pid,
                        Pid src2_pid, RuleAction *action_out) const
{
    RuleAction action = lookup(uop);
    if (action_out)
        *action_out = action;
    switch (action) {
      case RuleAction::Clear:
        return NoPid;
      case RuleAction::CopySrc1:
        return src1_pid;
      case RuleAction::CopySrc2:
        return src2_pid;
      case RuleAction::CopyNonZero:
        if (src1_pid == NoPid)
            return src2_pid;
        if (src2_pid == NoPid)
            return src1_pid;
        return src1_pid; // both tagged: favour the first source
      case RuleAction::AssignWild: {
        // Synthetic (decoder-internal) immediates never create wild
        // pointers. Of the programmer-visible load-immediates, only
        // values that could plausibly be virtual addresses are
        // tagged — small constants (loop counts, masks) stay
        // untracked so that storing and reloading ordinary integers
        // does not pollute the alias table with PID(-1) entries.
        if (uop.synthetic)
            return NoPid;
        auto imm = static_cast<uint64_t>(uop.imm);
        bool address_like = imm >= 0x10000 && imm < (1ull << 48);
        return address_like ? WildPid : NoPid;
      }
      case RuleAction::LoadAlias:
      case RuleAction::StoreAlias:
        // Resolved by the alias machinery; no register-side result
        // computable here.
        return NoPid;
      default:
        chex_panic("unknown rule action");
    }
}

std::vector<TrackRule>
RuleDatabase::rules() const
{
    std::vector<TrackRule> out;
    out.reserve(byKey->size());
    for (const auto &[key, rule] : *byKey)
        out.push_back(rule);
    return out;
}

namespace
{

RuleDatabase
buildTableI()
{
    RuleDatabase db;
    auto add = [&](UopType type, AluOp op, OperandForm form,
                   RuleAction action, const char *example,
                   const char *code) {
        db.install({{type, op, form}, action, example, code, true});
    };

    // MOV Reg-Reg: PID(rcx) <- PID(rbx)
    add(UopType::IntAlu, AluOp::Mov, OperandForm::RegReg,
        RuleAction::CopySrc1, "mov %rcx, %rbx", "ptr1 = ptr2;");
    // AND Reg-Reg: copy the non-zero-PID source
    add(UopType::IntAlu, AluOp::And, OperandForm::RegReg,
        RuleAction::CopyNonZero, "and %rcx, %rbx, %rax",
        "ptr2 = ptr1 & mask;");
    // AND Reg-Imm: PID(rcx) <- PID(rbx)
    add(UopType::IntAlu, AluOp::And, OperandForm::RegImm,
        RuleAction::CopySrc1, "andi %rcx, %rbx, $imm",
        "ptr2 = ptr1 & 0xffff0000;");
    // LEA: PID(rcx) <- PID(rbx) (base register)
    add(UopType::Lea, AluOp::None, OperandForm::Mem,
        RuleAction::CopySrc1, "lea %rcx, (%rbx, %idx, scl)",
        "ptr = &a[50];");
    // ADD Reg-Reg: copy the non-zero-PID source
    add(UopType::IntAlu, AluOp::Add, OperandForm::RegReg,
        RuleAction::CopyNonZero, "add %rcx, %rbx, %rax",
        "ptr2 = ptr1 + const;");
    // ADD Reg-Imm
    add(UopType::IntAlu, AluOp::Add, OperandForm::RegImm,
        RuleAction::CopySrc1, "addi %rcx, %rbx, $imm",
        "ptr2 = ptr1 + 4;");
    // SUB Reg-Reg: always the first source (the minuend)
    add(UopType::IntAlu, AluOp::Sub, OperandForm::RegReg,
        RuleAction::CopySrc1, "sub %rcx, %rbx, %rax",
        "ptr2 = ptr1 - const;");
    // SUB Reg-Imm
    add(UopType::IntAlu, AluOp::Sub, OperandForm::RegImm,
        RuleAction::CopySrc1, "subi %rcx, %rbx, $imm",
        "ptr2 = ptr1 - 4;");
    // LD Reg-Mem: PID(rcx) <- PID(Mem[EA])
    add(UopType::Load, AluOp::None, OperandForm::Mem,
        RuleAction::LoadAlias, "ldq %rcx, [EA]",
        "int *ptr2 = ptr1[100];");
    // ST Reg-Mem: PID(Mem[EA]) <- PID(rcx)
    add(UopType::Store, AluOp::None, OperandForm::Mem,
        RuleAction::StoreAlias, "stq %rcx, [EA]", "*ptr1 = ptr2;");
    // MOVI Reg-Imm: PID(rax) <- PID(-1)
    add(UopType::LoadImm, AluOp::Mov, OperandForm::RegImm,
        RuleAction::AssignWild, "limm %rax, $imm",
        "int *p = (int *)0x7fff1000;");
    return db;
}

} // anonymous namespace

RuleDatabase
RuleDatabase::tableI()
{
    static const RuleDatabase table = buildTableI();
    return table;
}

} // namespace chex
