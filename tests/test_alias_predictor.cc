/**
 * @file
 * Alias-predictor tests: stride learning over the Table II PID
 * patterns, the blacklist filter for data loads, the three
 * misprediction classes of Section V-C, and accuracy accounting.
 */

#include <gtest/gtest.h>

#include "tracker/alias_predictor.hh"
#include "workload/patterns.hh"

namespace chex
{
namespace
{

/** decode() without the problem text. */
template <typename T>
bool
restore(T &target, const json::Value &doc)
{
    std::string why;
    return target.decode(doc, &why);
}

/** Run a PID sequence through one PC and return final accuracy. */
double
trainSequence(AliasPredictor &pred, uint64_t pc,
              const std::vector<Pid> &pids)
{
    for (Pid pid : pids) {
        AliasPrediction p = pred.predict(pc);
        pred.update(pc, p, pid);
    }
    return pred.accuracy();
}

TEST(AliasPredictor, LearnsConstantPattern)
{
    AliasPredictor pred;
    std::vector<Pid> seq(64, 31); // "31 31 31 31 ..."
    trainSequence(pred, 0x400100, seq);
    AliasPrediction p = pred.predict(0x400100);
    EXPECT_TRUE(p.isReload);
    EXPECT_EQ(p.pid, 31u);
}

TEST(AliasPredictor, LearnsStridePattern)
{
    AliasPredictor pred;
    std::vector<Pid> seq;
    for (Pid p = 13; p < 13 + 60 * 3; p += 3)
        seq.push_back(p); // "13 16 19 22 ..."
    trainSequence(pred, 0x400100, seq);
    AliasPrediction p = pred.predict(0x400100);
    EXPECT_TRUE(p.isReload);
    EXPECT_EQ(p.pid, 13u + 60u * 3u);
    EXPECT_GT(pred.accuracy(), 0.9);
}

TEST(AliasPredictor, LearnsBatchStridePattern)
{
    AliasPredictor pred;
    std::vector<Pid> seq;
    for (Pid v = 11; v < 100; v += 4)
        for (int k = 0; k < 4; ++k)
            seq.push_back(v); // "11 11 11 11 15 15 15 15 ..."
    trainSequence(pred, 0x400100, seq);
    // Within a batch the stride is 0 most of the time; accuracy must
    // be well above chance.
    EXPECT_GT(pred.accuracy(), 0.6);
}

TEST(AliasPredictor, BlacklistsDataLoads)
{
    AliasPredictor pred;
    uint64_t pc = 0x400200;
    for (int i = 0; i < 32; ++i) {
        AliasPrediction p = pred.predict(pc);
        pred.update(pc, p, NoPid); // never a pointer reload
    }
    AliasPrediction p = pred.predict(pc);
    EXPECT_FALSE(p.isReload);
    EXPECT_GT(pred.accuracy(), 0.95);
}

TEST(AliasPredictor, OutcomeClassification)
{
    AliasPredictor pred;
    AliasPrediction none;
    AliasPrediction reload7;
    reload7.isReload = true;
    reload7.pid = 7;

    EXPECT_EQ(pred.update(0x1000, none, NoPid),
              AliasOutcome::CorrectNone);
    EXPECT_EQ(pred.update(0x1004, reload7, 7),
              AliasOutcome::CorrectReload);
    EXPECT_EQ(pred.update(0x1008, reload7, NoPid),
              AliasOutcome::PNA0);
    EXPECT_EQ(pred.update(0x100c, none, 7), AliasOutcome::P0AN);
    EXPECT_EQ(pred.update(0x1010, reload7, 9), AliasOutcome::PMAN);
    EXPECT_EQ(pred.outcomeCount(AliasOutcome::PNA0), 1u);
    EXPECT_EQ(pred.outcomeCount(AliasOutcome::P0AN), 1u);
    EXPECT_EQ(pred.outcomeCount(AliasOutcome::PMAN), 1u);
}

TEST(AliasPredictor, ColdPcCausesP0anOnceThenAdapts)
{
    AliasPredictor pred;
    uint64_t pc = 0x400300;
    AliasPrediction p = pred.predict(pc);
    EXPECT_FALSE(p.isReload); // cold
    EXPECT_EQ(pred.update(pc, p, 5), AliasOutcome::P0AN);
    // Once allocated, the entry predicts a reload even at low
    // confidence, turning further mispredictions into cheap PMANs.
    p = pred.predict(pc);
    EXPECT_TRUE(p.isReload);
}

TEST(AliasPredictor, ReloadMispredictionRateDenominator)
{
    AliasPredictor pred;
    AliasPrediction none;
    // 10 correct-none (not reload events) + 1 P0AN.
    for (int i = 0; i < 10; ++i)
        pred.update(0x2000, none, NoPid);
    pred.update(0x2004, none, 5);
    EXPECT_DOUBLE_EQ(pred.reloadMispredictionRate(), 1.0);
    EXPECT_NEAR(pred.accuracy(), 10.0 / 11.0, 1e-9);
}

TEST(AliasPredictor, TableIIPatternsArePredictable)
{
    // Property sweep: each Table II pattern class, driven through
    // the predictor as PID sequences, must beat a no-predictor
    // baseline by a wide margin (the paper's ~89 % average).
    struct Case
    {
        PatternKind kind;
        double minAccuracy;
    };
    const Case cases[] = {
        {PatternKind::Constant, 0.95},
        {PatternKind::Stride, 0.90},
        {PatternKind::BatchStride, 0.60},
        {PatternKind::RepeatStride, 0.30},
    };
    Random rng(3);
    for (const Case &c : cases) {
        AliasPredictor pred;
        PatternParams pp;
        pp.numBuffers = 32;
        pp.length = 512;
        auto sched = generateSchedule(c.kind, pp, rng);
        std::vector<Pid> pids;
        for (unsigned idx : sched)
            pids.push_back(100 + idx);
        trainSequence(pred, 0x400400, pids);
        EXPECT_GT(pred.accuracy(), c.minAccuracy)
            << patternName(c.kind);
    }
}

TEST(AliasPredictor, SizeSweepImprovesConflictBehaviour)
{
    // Many distinct reload PCs: a larger table must not be worse.
    auto run = [](unsigned entries) {
        AliasPredictorConfig cfg;
        cfg.entries = entries;
        AliasPredictor pred(cfg);
        Random rng(11);
        for (int round = 0; round < 20; ++round) {
            for (uint64_t pc = 0x400000; pc < 0x400000 + 256 * 4;
                 pc += 4) {
                AliasPrediction p = pred.predict(pc);
                pred.update(pc, p, static_cast<Pid>(pc & 0xff) + 1);
            }
        }
        return pred.accuracy();
    };
    EXPECT_GE(run(1024) + 0.02, run(64));
}

TEST(AliasPredictor, ClearResetsState)
{
    AliasPredictor pred;
    AliasPrediction none;
    pred.update(0x1000, none, 5);
    pred.clear();
    EXPECT_EQ(pred.predictions(), 0u);
    EXPECT_FALSE(pred.predict(0x1000).isReload);
}

TEST(AliasPredictor, SaveRestoreRoundTrip)
{
    AliasPredictor pred;
    trainSequence(pred, 0x400100, std::vector<Pid>(32, 9));
    for (int i = 0; i < 8; ++i) {
        AliasPrediction p = pred.predict(0x400200);
        pred.update(0x400200, p, NoPid); // blacklist entry too
    }
    json::Value doc = pred.encode();
    AliasPredictor restored;
    ASSERT_TRUE(restore(restored, doc));
    EXPECT_EQ(restored.encode().dump(0), doc.dump(0));
    EXPECT_EQ(restored.predict(0x400100).pid, 9u);
    EXPECT_FALSE(restored.predict(0x400200).isReload);
}

/**
 * Build a one-entry predictor snapshot whose table entry carries the
 * given confidence, then let @p mutate poke the document further.
 */
json::Value
predictorDocWithConfidence(uint64_t confidence)
{
    AliasPredictor pred;
    trainSequence(pred, 0x400100, std::vector<Pid>(32, 9));
    json::Value doc = pred.encode();
    const json::Value *table = doc.find("table");
    json::Value entry = table->at(size_t{0});
    entry.set("confidence", confidence);
    json::Value replaced = json::Value::array();
    replaced.push(std::move(entry));
    doc.set("table", std::move(replaced));
    return doc;
}

TEST(AliasPredictor, RestoreRejectsOverflowedConfidence)
{
    // Regression: restore accepted confidence counters past the
    // saturating maximum — state the training logic can never reach,
    // which the stride predictor would then take many extra
    // mispredictions to age out.
    AliasPredictorConfig cfg;
    AliasPredictor pred;
    EXPECT_TRUE(restore(pred, 
        predictorDocWithConfidence(cfg.confidenceMax)));
    EXPECT_FALSE(restore(pred, 
        predictorDocWithConfidence(cfg.confidenceMax + 1)));
    // The failed restore leaves a cleared, usable predictor.
    EXPECT_EQ(pred.predictions(), 0u);
    EXPECT_FALSE(pred.predict(0x400100).isReload);
}

TEST(AliasPredictor, RestoreRejectsDuplicateSlots)
{
    // Regression: a document repeating a slot index restored
    // last-writer-wins instead of being rejected as malformed.
    AliasPredictor pred;
    trainSequence(pred, 0x400100, std::vector<Pid>(32, 9));
    json::Value doc = pred.encode();
    const json::Value *table = doc.find("table");
    json::Value first = table->at(size_t{0});
    json::Value dup = json::Value::array();
    dup.push(first);
    dup.push(std::move(first));
    doc.set("table", std::move(dup));
    EXPECT_FALSE(restore(pred, doc));
}

TEST(AliasPredictor, RestoreRejectsBadBlacklistEntries)
{
    AliasPredictorConfig cfg;
    AliasPredictor pred;
    for (int i = 0; i < 8; ++i) {
        AliasPrediction p = pred.predict(0x400200);
        pred.update(0x400200, p, NoPid);
    }
    json::Value good = pred.encode();

    json::Value overflowed = good;
    const json::Value *bl = overflowed.find("blacklist");
    json::Value entry = bl->at(size_t{0});
    entry.set("confidence", uint64_t{cfg.confidenceMax} + 1);
    json::Value one = json::Value::array();
    one.push(std::move(entry));
    overflowed.set("blacklist", std::move(one));
    EXPECT_FALSE(restore(pred, overflowed));

    json::Value duplicated = good;
    bl = duplicated.find("blacklist");
    json::Value first = bl->at(size_t{0});
    json::Value two = json::Value::array();
    two.push(first);
    two.push(std::move(first));
    duplicated.set("blacklist", std::move(two));
    EXPECT_FALSE(restore(pred, duplicated));

    EXPECT_TRUE(restore(pred, good));
}

} // namespace
} // namespace chex
