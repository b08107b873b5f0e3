#include "bpred.hh"

#include "base/logging.hh"

namespace chex
{

BranchPredictor::BranchPredictor(const BranchPredictorConfig &cfg_in)
    : cfg(cfg_in),
      bimodal(cfg.bimodalEntries, 1), // weakly not-taken
      btb(cfg.btbEntries),
      ras(cfg.rasEntries, 0),
      foldIdx(cfg.taggedTables, 0),
      foldTagA(cfg.taggedTables, 0),
      foldTagB(cfg.taggedTables, 0)
{
    tagged.reserve(cfg.taggedTables);
    for (unsigned t = 0; t < cfg.taggedTables; ++t)
        tagged.emplace_back(cfg.taggedEntries);
    while ((1u << taggedIdxBits) < cfg.taggedEntries)
        ++taggedIdxBits;
}

void
BranchPredictor::refreshFolds() const
{
    if (foldsValid)
        return;
    for (unsigned t = 0; t < cfg.taggedTables; ++t) {
        foldIdx[t] = foldedHistory(cfg.historyLengths[t], taggedIdxBits);
        foldTagA[t] = foldedHistory(cfg.historyLengths[t], cfg.tagBits);
        foldTagB[t] =
            foldedHistory(cfg.historyLengths[t], cfg.tagBits - 1);
    }
    foldsValid = true;
}

unsigned
BranchPredictor::bimodalIndex(uint64_t pc) const
{
    return static_cast<unsigned>((pc >> 2) % cfg.bimodalEntries);
}

uint64_t
BranchPredictor::foldedHistory(unsigned length, unsigned bits) const
{
    uint64_t h = history & ((length >= 64) ? ~0ull
                                           : ((1ull << length) - 1));
    uint64_t folded = 0;
    while (h) {
        folded ^= h & ((1ull << bits) - 1);
        h >>= bits;
    }
    return folded;
}

unsigned
BranchPredictor::taggedIndex(uint64_t pc, unsigned table) const
{
    refreshFolds();
    uint64_t idx = (pc >> 2) ^ (pc >> 11) ^ foldIdx[table];
    return static_cast<unsigned>(idx % cfg.taggedEntries);
}

uint16_t
BranchPredictor::taggedTag(uint64_t pc, unsigned table) const
{
    refreshFolds();
    uint64_t tag = (pc >> 2) ^ foldTagA[table] ^ (foldTagB[table] << 1);
    return static_cast<uint16_t>(tag & ((1u << cfg.tagBits) - 1));
}

bool
BranchPredictor::predictDirection(uint64_t pc, int *provider,
                                  unsigned *provider_index) const
{
    *provider = -1;
    for (int t = static_cast<int>(cfg.taggedTables) - 1; t >= 0; --t) {
        unsigned idx = taggedIndex(pc, t);
        const TaggedEntry &e = tagged[t][idx];
        if (tagged[t].valid(idx) && e.tag == taggedTag(pc, t)) {
            *provider = t;
            *provider_index = idx;
            return e.ctr >= 0;
        }
    }
    return bimodal[bimodalIndex(pc)] >= 2;
}

BranchPrediction
BranchPredictor::predict(uint64_t pc, bool is_call, bool is_return,
                         bool is_unconditional, uint64_t fallthrough)
{
    ++numLookups;
    BranchPrediction pred;

    if (is_return) {
        pred.taken = true;
        if (rasTop > 0) {
            pred.target = ras[(rasTop - 1) % cfg.rasEntries];
            pred.targetKnown = true;
            --rasTop;
        }
        return pred;
    }

    if (is_unconditional || is_call) {
        pred.taken = true;
    } else {
        int provider;
        unsigned provider_index;
        pred.taken = predictDirection(pc, &provider, &provider_index);
    }

    if (pred.taken) {
        size_t idx = (pc >> 2) % cfg.btbEntries;
        const BtbEntry &e = btb[idx];
        if (btb.valid(idx) && e.tag == pc) {
            pred.target = e.target;
            pred.targetKnown = true;
        }
    }

    if (is_call) {
        ras[rasTop % cfg.rasEntries] = fallthrough;
        ++rasTop;
    }
    return pred;
}

void
BranchPredictor::update(uint64_t pc, bool taken, uint64_t target,
                        bool is_conditional)
{
    if (is_conditional) {
        int provider;
        unsigned provider_index = 0;
        bool predicted = predictDirection(pc, &provider,
                                          &provider_index);
        bool wrong = predicted != taken;
        if (wrong)
            ++numDirWrong;

        // Update the provider (or the bimodal base).
        if (provider >= 0) {
            TaggedEntry &e = tagged[provider][provider_index];
            if (taken && e.ctr < 3)
                ++e.ctr;
            else if (!taken && e.ctr > -4)
                --e.ctr;
            if (!wrong && e.useful < 3)
                ++e.useful;
        } else {
            uint8_t &c = bimodal[bimodalIndex(pc)];
            if (taken && c < 3)
                ++c;
            else if (!taken && c > 0)
                --c;
        }

        // Allocate a longer-history entry on a misprediction.
        if (wrong) {
            unsigned start =
                provider >= 0 ? static_cast<unsigned>(provider) + 1 : 0;
            for (unsigned t = start; t < cfg.taggedTables; ++t) {
                unsigned idx = taggedIndex(pc, t);
                TaggedEntry &e = tagged[t][idx];
                if (!tagged[t].valid(idx) || e.useful == 0) {
                    tagged[t].setValid(idx);
                    e = {taggedTag(pc, t),
                         static_cast<int8_t>(taken ? 0 : -1), 0};
                    break;
                }
                if (e.useful > 0)
                    --e.useful;
            }
        }

        history = (history << 1) | (taken ? 1 : 0);
        foldsValid = false;
    }

    if (taken) {
        size_t idx = (pc >> 2) % cfg.btbEntries;
        BtbEntry &e = btb[idx];
        if (btb.valid(idx) && e.tag == pc && e.target != target)
            ++numTargetWrong;
        btb.setValid(idx);
        e = {pc, target};
    }
}

bool
BranchPredictor::decode(const json::Value &v, std::string *why)
{
    foldsValid = false;
    return json::decodeFields(v, *this, why);
}

} // namespace chex
