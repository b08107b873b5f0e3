/**
 * @file
 * Branch prediction for the simulated core (Table III: LTAGE
 * direction predictor, 4096-entry BTB, 64-entry RAS). The direction
 * predictor is a TAGE-style design: a bimodal base table plus tagged
 * tables indexed by geometrically increasing global-history lengths;
 * the longest-history hit provides the prediction, with a
 * usefulness-based allocation policy on mispredictions.
 */

#ifndef CHEX_CPU_BPRED_HH
#define CHEX_CPU_BPRED_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "base/base64.hh"
#include "base/fields.hh"
#include "base/slot_table.hh"

namespace chex
{

/** Geometry of the TAGE predictor + BTB + RAS. */
struct BranchPredictorConfig
{
    unsigned bimodalEntries = 8192;
    unsigned taggedTables = 4;
    unsigned taggedEntries = 1024;     // per table
    unsigned historyLengths[4] = {8, 16, 32, 64};
    unsigned tagBits = 10;
    unsigned btbEntries = 4096;
    unsigned rasEntries = 64;
};

/** A combined direction + target prediction. */
struct BranchPrediction
{
    bool taken = false;
    uint64_t target = 0;
    bool targetKnown = false; // BTB/RAS produced a target
};

/** TAGE-style branch predictor with BTB and return-address stack. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredictorConfig &cfg = {});

    /**
     * Predict the branch at @p pc.
     * @param is_call Push the return address on the RAS.
     * @param is_return Pop the target from the RAS.
     * @param is_unconditional Direct unconditional (always taken).
     * @param fallthrough Address of the next sequential instruction
     *        (pushed on calls).
     */
    BranchPrediction predict(uint64_t pc, bool is_call, bool is_return,
                             bool is_unconditional,
                             uint64_t fallthrough);

    /** Train with the resolved outcome. */
    void update(uint64_t pc, bool taken, uint64_t target,
                bool is_conditional);

    uint64_t lookups() const { return numLookups; }
    uint64_t directionMispredicts() const { return numDirWrong; }
    uint64_t targetMispredicts() const { return numTargetWrong; }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh)
     * The bimodal table goes in whole (base64); tagged (one list per
     * table) and BTB entries sparsely (valid only — invalid slots
     * are never read thanks to the allocation policy's
     * short-circuit); the RAS fully (it is circular, every cell is
     * reachable). Decoding rejects a geometry mismatch. */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("bimodalEntries", json::Pinned{s.cfg.bimodalEntries});
        f("taggedTables", json::Pinned{s.cfg.taggedTables});
        f("taggedEntries", json::Pinned{s.cfg.taggedEntries});
        f("btbEntries", json::Pinned{s.cfg.btbEntries});
        f("rasEntries", json::Pinned{s.cfg.rasEntries});
        f("bimodal", Base64Bytes{s.bimodal});
        f("tagged", json::FixedLength{s.tagged, [](auto &table) {
                                          return json::ValidSlots{
                                              table, [](auto &e, auto &g) {
                                                  g("tag", e.tag);
                                                  g("ctr", e.ctr);
                                                  g("useful", e.useful);
                                              }};
                                      }});
        f("btb", json::ValidSlots{s.btb, [](auto &e, auto &g) {
                                      g("tag", e.tag);
                                      g("target", e.target);
                                  }});
        f("ras", json::FixedLength{s.ras});
        f("rasTop", s.rasTop);
        f("history", s.history);
        f("numLookups", s.numLookups);
        f("numDirWrong", s.numDirWrong);
        f("numTargetWrong", s.numTargetWrong);
    }

    /** The field list's reader; also drops the folded-history memo. */
    bool decode(const json::Value &v, std::string *why);
    /** @} */

  private:
    struct TaggedEntry
    {
        uint16_t tag;
        int8_t ctr; // signed 3-bit counter, taken when >= 0
        uint8_t useful;
    };
    struct BtbEntry
    {
        uint64_t tag;
        uint64_t target;
    };
    // Kept in uninitialised storage: a member initialiser would zero it.
    static_assert(std::is_trivially_default_constructible_v<TaggedEntry>);
    static_assert(std::is_trivially_default_constructible_v<BtbEntry>);

    unsigned bimodalIndex(uint64_t pc) const;
    unsigned taggedIndex(uint64_t pc, unsigned table) const;
    uint16_t taggedTag(uint64_t pc, unsigned table) const;
    uint64_t foldedHistory(unsigned length, unsigned bits) const;

    /** Direction prediction with provider-table bookkeeping. */
    bool predictDirection(uint64_t pc, int *provider,
                          unsigned *provider_index) const;

    BranchPredictorConfig cfg;
    std::vector<uint8_t> bimodal; // 2-bit counters
    std::vector<SlotTable<TaggedEntry>> tagged;
    SlotTable<BtbEntry> btb;
    std::vector<uint64_t> ras;
    size_t rasTop = 0;

    uint64_t history = 0; // global history (youngest bit 0)

    /**
     * Per-table folded-history memo. predict() and update() both
     * fold the global history for every tagged table (index fold
     * plus two tag folds), but the history only changes once per
     * conditional branch — so the folds are computed lazily on the
     * first use after each history change and reused until the next
     * one. Purely a host-side cache: fold values are identical to
     * recomputing.
     */
    void refreshFolds() const;
    mutable bool foldsValid = false;
    mutable std::vector<uint64_t> foldIdx;  // bits = taggedIdxBits
    mutable std::vector<uint64_t> foldTagA; // bits = tagBits
    mutable std::vector<uint64_t> foldTagB; // bits = tagBits - 1

    unsigned taggedIdxBits = 0; // ceil(log2(taggedEntries))

    uint64_t numLookups = 0;
    uint64_t numDirWrong = 0;
    uint64_t numTargetWrong = 0;
};

} // namespace chex

#endif // CHEX_CPU_BPRED_HH
