/**
 * @file
 * The pointer-tracking rule database (Table I): a small configurable
 * set of peephole rules, keyed by micro-op opcode and addressing
 * mode, that decide how PIDs propagate from a micro-op's sources to
 * its destination. The database ships with the expert-seeded rules
 * of Table I and can be extended at run time by the hardware checker
 * co-processor (automatic rule construction, Section V-A).
 */

#ifndef CHEX_TRACKER_RULES_HH
#define CHEX_TRACKER_RULES_HH

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cap/capability.hh"
#include "isa/uops.hh"

namespace chex
{

/** Operand form a rule matches on. */
enum class OperandForm : uint8_t
{
    RegReg,
    RegImm,
    Mem,     // load/store
};

/** How a matched rule propagates PIDs. */
enum class RuleAction : uint8_t
{
    Clear,        // PID(result) <- 0 (the default for unmatched ops)
    CopySrc1,     // PID(dst) <- PID(src1)
    CopySrc2,     // PID(dst) <- PID(src2)
    CopyNonZero,  // if exactly one source has a PID, copy it (ADD/AND)
    LoadAlias,    // PID(dst) <- PID(Mem[EA])   (rule LD)
    StoreAlias,   // PID(Mem[EA]) <- PID(src)   (rule ST)
    AssignWild,   // PID(dst) <- PID(-1)        (rule MOVI)
};

/** Printable action description. */
const char *ruleActionName(RuleAction action);

/** Lookup key: micro-op class + ALU sub-op + operand form. */
struct RuleKey
{
    UopType type;
    AluOp op;
    OperandForm form;

    auto operator<=>(const RuleKey &) const = default;
};

/** One rule with its Table-I-style documentation fields. */
struct TrackRule
{
    RuleKey key;
    RuleAction action;
    std::string example;      // micro-op example text
    std::string codeExample;  // C-level code example
    bool expertSeeded = true; // false if checker-constructed
};

/** Classify a micro-op into a rule key. */
RuleKey ruleKeyFor(const StaticUop &uop);

/** The configurable rule database. */
class RuleDatabase
{
  public:
    /** Empty database: every op falls through to Clear. */
    RuleDatabase() = default;

    /**
     * The expert-seeded Table I database. It is built once per
     * process; every copy shares its rules until it installs one.
     */
    static RuleDatabase tableI();

    /**
     * Install (or replace) a rule. The rules are copied first, so a
     * shared Table I never changes; only the checker installs, at
     * most once per rule key.
     */
    void install(const TrackRule &rule);

    /** Action for @p uop (Clear when no rule matches). */
    RuleAction lookup(const StaticUop &uop) const;

    /** True if a rule exists for @p key. */
    bool has(const RuleKey &key) const;

    /**
     * Apply the matched rule to compute the destination PID from the
     * source PIDs. Mem actions are resolved by the caller (alias
     * machinery); this returns the register-side result and reports
     * the action taken via @p action_out.
     */
    Pid propagate(const StaticUop &uop, Pid src1_pid, Pid src2_pid,
                  RuleAction *action_out = nullptr) const;

    /** All installed rules, in deterministic order. */
    std::vector<TrackRule> rules() const;

    size_t size() const { return byKey->size(); }

  private:
    // Key-space extents for the dense action table. The tracker
    // calls lookup() on every ALU/LEA micro-op, so the hot path
    // indexes a flat array instead of walking the rule map; byKey
    // remains the source of truth for documentation fields and
    // deterministic enumeration.
    static constexpr size_t NumUopTypes =
        static_cast<size_t>(UopType::NUM_TYPES);
    static constexpr size_t NumAluOps =
        static_cast<size_t>(AluOp::FCvt) + 1;
    static constexpr size_t NumForms = 3; // OperandForm values

    static size_t
    flatIndex(const RuleKey &key)
    {
        return (static_cast<size_t>(key.type) * NumAluOps +
                static_cast<size_t>(key.op)) *
                   NumForms +
               static_cast<size_t>(key.form);
    }

    using RuleMap = std::map<RuleKey, TrackRule>;

    std::shared_ptr<const RuleMap> byKey = std::make_shared<RuleMap>();
    std::array<RuleAction, NumUopTypes * NumAluOps * NumForms>
        actions{}; // zero-init == RuleAction::Clear
};

} // namespace chex

#endif // CHEX_TRACKER_RULES_HH
