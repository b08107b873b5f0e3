#include "alias_predictor.hh"

#include "base/logging.hh"
#include "isa/insts.hh"

namespace chex
{

const char *
aliasOutcomeName(AliasOutcome outcome)
{
    switch (outcome) {
      case AliasOutcome::CorrectNone: return "correct-none";
      case AliasOutcome::CorrectReload: return "correct-reload";
      case AliasOutcome::PNA0: return "PNA0";
      case AliasOutcome::P0AN: return "P0AN";
      case AliasOutcome::PMAN: return "PMAN";
      default: return "???";
    }
}

AliasPredictor::AliasPredictor(const AliasPredictorConfig &cfg_in)
    : cfg(cfg_in),
      table(cfg.entries),
      blacklist(cfg.blacklistEntries)
{
    chex_assert(cfg.entries > 0 && cfg.blacklistEntries > 0,
                "bad predictor geometry");
}

unsigned
AliasPredictor::indexOf(uint64_t pc, unsigned size) const
{
    uint64_t word = pc / InstSlotBytes;
    // Multiplicative hash spreads loop bodies across the table.
    return static_cast<unsigned>((word * 0x9e3779b97f4a7c15ull) >> 32) %
           size;
}

AliasPrediction
AliasPredictor::predict(uint64_t pc) const
{
    AliasPrediction pred;

    unsigned bi = indexOf(pc, cfg.blacklistEntries);
    const BlacklistEntry &bl = blacklist[bi];
    if (blacklist.valid(bi) && bl.tag == pc &&
        bl.confidence >= cfg.predictThreshold)
        return pred; // confidently a data load

    // A matching entry always predicts a reload: even when the
    // stride confidence is low, predicting *some* PID turns a
    // would-be P0AN pipeline flush into a cheap PMAN forward
    // (Figure 5e). Low confidence just falls back to the last PID.
    unsigned ti = indexOf(pc, cfg.entries);
    const Entry &e = table[ti];
    if (table.valid(ti) && e.tag == pc) {
        pred.isReload = true;
        pred.pid = e.confidence >= cfg.predictThreshold
                       ? static_cast<Pid>(
                             static_cast<int64_t>(e.lastPid) + e.stride)
                       : e.lastPid;
    }
    return pred;
}

AliasOutcome
AliasPredictor::update(uint64_t pc, const AliasPrediction &predicted,
                       Pid actual)
{
    ++numPredictions;

    // Classify.
    AliasOutcome outcome;
    if (!predicted.isReload && actual == NoPid)
        outcome = AliasOutcome::CorrectNone;
    else if (predicted.isReload && predicted.pid == actual)
        outcome = AliasOutcome::CorrectReload;
    else if (predicted.isReload && actual == NoPid)
        outcome = AliasOutcome::PNA0;
    else if (!predicted.isReload)
        outcome = AliasOutcome::P0AN;
    else
        outcome = AliasOutcome::PMAN;

    if (outcome == AliasOutcome::CorrectNone ||
        outcome == AliasOutcome::CorrectReload)
        ++numCorrect;
    ++outcomes[static_cast<unsigned>(outcome)];

    // Train the blacklist.
    unsigned bi = indexOf(pc, cfg.blacklistEntries);
    BlacklistEntry &bl = blacklist[bi];
    bool bl_hit = blacklist.valid(bi) && bl.tag == pc;
    if (actual == NoPid) {
        if (bl_hit) {
            if (bl.confidence < cfg.confidenceMax)
                ++bl.confidence;
        } else if (!blacklist.valid(bi) || bl.confidence == 0) {
            blacklist.setValid(bi);
            bl = {pc, 1};
        } else {
            --bl.confidence; // aging of the resident entry
        }
    } else if (bl_hit) {
        if (bl.confidence > 0)
            --bl.confidence;
        else
            blacklist.resetValid(bi);
    }

    // Train the stride table.
    unsigned ti = indexOf(pc, cfg.entries);
    Entry &e = table[ti];
    bool hit = table.valid(ti) && e.tag == pc;
    if (actual != NoPid) {
        if (!hit) {
            table.setValid(ti);
            e = {pc, actual, 0, 1};
        } else {
            int64_t observed = static_cast<int64_t>(actual) -
                               static_cast<int64_t>(e.lastPid);
            if (observed == e.stride) {
                if (e.confidence < cfg.confidenceMax)
                    ++e.confidence;
            } else if (e.confidence > 0) {
                --e.confidence;
            } else {
                e.stride = observed;
                e.confidence = 1;
            }
            e.lastPid = actual;
        }
    } else if (hit && e.confidence > 0) {
        --e.confidence;
    }

    return outcome;
}

double
AliasPredictor::reloadMispredictionRate() const
{
    uint64_t reload_events =
        outcomes[static_cast<unsigned>(AliasOutcome::CorrectReload)] +
        outcomes[static_cast<unsigned>(AliasOutcome::PNA0)] +
        outcomes[static_cast<unsigned>(AliasOutcome::P0AN)] +
        outcomes[static_cast<unsigned>(AliasOutcome::PMAN)];
    if (reload_events == 0)
        return 0.0;
    uint64_t wrong =
        outcomes[static_cast<unsigned>(AliasOutcome::PNA0)] +
        outcomes[static_cast<unsigned>(AliasOutcome::P0AN)] +
        outcomes[static_cast<unsigned>(AliasOutcome::PMAN)];
    return static_cast<double>(wrong) / reload_events;
}

void
AliasPredictor::clear()
{
    table.clear();
    blacklist.clear();
    numPredictions = 0;
    numCorrect = 0;
    for (auto &o : outcomes)
        o = 0;
}

namespace
{

/**
 * A saturating counter as a snapshot member: reading rejects a value
 * past @p max, which the training logic can never reach.
 */
template <typename T>
struct Saturating
{
    T &value;
    uint8_t max;

    json::Value encode() const { return json::encode(value); }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        if (!json::decode(v, value, why))
            return false;
        return value <= max ||
               json::reject(why, " is above " + std::to_string(max));
    }
};

} // namespace

template <typename S, typename F>
void
AliasPredictor::fields(S &s, F &&f)
{
    const uint8_t max = s.cfg.confidenceMax;
    f("entries", json::Pinned{s.cfg.entries});
    f("blacklistEntries", json::Pinned{s.cfg.blacklistEntries});
    f("table", json::ValidSlots{s.table, [max](auto &e, auto &g) {
                                    g("tag", e.tag);
                                    g("lastPid", e.lastPid);
                                    g("stride", e.stride);
                                    g("confidence",
                                      Saturating{e.confidence, max});
                                }});
    f("blacklist", json::ValidSlots{s.blacklist, [max](auto &e, auto &g) {
                                        g("tag", e.tag);
                                        g("confidence",
                                          Saturating{e.confidence, max});
                                    }});
    f("numPredictions", s.numPredictions);
    f("numCorrect", s.numCorrect);
    f("outcomes", json::Group{[&](auto &g) {
          for (unsigned i = 0; i < std::size(s.outcomes); ++i)
              g(aliasOutcomeName(static_cast<AliasOutcome>(i)),
                s.outcomes[i]);
      }});
}

json::Value
AliasPredictor::encode() const
{
    return json::encodeFields(*this);
}

bool
AliasPredictor::decode(const json::Value &v, std::string *why)
{
    if (json::decodeFields(v, *this, why))
        return true;
    clear(); // a failed decode leaves a cleared, usable predictor
    return false;
}

} // namespace chex
