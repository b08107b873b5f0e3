/**
 * @file
 * Register-tag-file tests: the committed + transient PID tags of
 * Section V-D, including squash recovery by sequence number, commit
 * folding, and the shared sequence-ordered ring against a
 * per-register reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "tracker/reg_tags.hh"

namespace chex
{
namespace
{

TEST(RegTags, FreshFileIsUntagged)
{
    RegTagFile tags;
    for (unsigned r = 0; r < NumArchRegs; ++r)
        EXPECT_EQ(tags.current(static_cast<RegId>(r)), NoPid);
}

TEST(RegTags, YoungestTransientWins)
{
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    EXPECT_EQ(tags.current(RAX), 2u);
    EXPECT_EQ(tags.committed(RAX), NoPid);
}

TEST(RegTags, CommitFoldsIntoFinalized)
{
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    tags.commitUpTo(15);
    EXPECT_EQ(tags.committed(RAX), 1u);
    EXPECT_EQ(tags.current(RAX), 2u); // transient 20 still pending
    tags.commitUpTo(20);
    EXPECT_EQ(tags.committed(RAX), 2u);
    EXPECT_EQ(tags.transientCount(), 0u);
}

TEST(RegTags, SquashDiscardsYoungerOnly)
{
    // The recovery protocol: on a squash at sequence number S, every
    // transient tag with seq > S is removed (Section V-D).
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    tags.write(RBX, 3, 25);
    tags.squashAfter(15);
    EXPECT_EQ(tags.current(RAX), 1u);
    EXPECT_EQ(tags.current(RBX), NoPid);
    EXPECT_EQ(tags.transientCount(), 1u);
}

TEST(RegTags, SquashThenRetagReplaysCorrectly)
{
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    tags.squashAfter(10);
    // Refetched path writes a different tag at a new seq.
    tags.write(RAX, 5, 21);
    EXPECT_EQ(tags.current(RAX), 5u);
    tags.commitUpTo(21);
    EXPECT_EQ(tags.committed(RAX), 5u);
}

TEST(RegTags, CommittedSurvivesSquash)
{
    RegTagFile tags;
    tags.write(RAX, 7, 5);
    tags.commitUpTo(5);
    tags.write(RAX, 9, 10);
    tags.squashAfter(6);
    EXPECT_EQ(tags.current(RAX), 7u); // falls back to finalized
}

TEST(RegTags, IndependentRegisters)
{
    RegTagFile tags;
    tags.write(RAX, 1, 1);
    tags.write(RBX, 2, 2);
    tags.write(R15, 3, 3);
    EXPECT_EQ(tags.current(RAX), 1u);
    EXPECT_EQ(tags.current(RBX), 2u);
    EXPECT_EQ(tags.current(R15), 3u);
    EXPECT_EQ(tags.current(RCX), NoPid);
}

TEST(RegTags, ClearResets)
{
    RegTagFile tags;
    tags.write(RAX, 1, 1);
    tags.commitUpTo(1);
    tags.write(RAX, 2, 2);
    tags.clear();
    EXPECT_EQ(tags.current(RAX), NoPid);
    EXPECT_EQ(tags.committed(RAX), NoPid);
    EXPECT_EQ(tags.transientCount(), 0u);
}

/** The per-register model the ring must match: each register keeps
 * its own transient list, oldest first. */
class ReferenceTags
{
  public:
    Pid
    current(RegId r) const
    {
        return regs[r].transients.empty() ? regs[r].finalized
                                          : regs[r].transients.back().second;
    }

    Pid committed(RegId r) const { return regs[r].finalized; }

    void
    write(RegId r, Pid pid, uint64_t seq)
    {
        regs[r].transients.emplace_back(seq, pid);
    }

    void
    commitUpTo(uint64_t seq)
    {
        for (Reg &reg : regs) {
            auto &t = reg.transients;
            size_t n = 0;
            while (n < t.size() && t[n].first <= seq)
                ++n;
            if (n > 0) {
                reg.finalized = t[n - 1].second;
                t.erase(t.begin(), t.begin() + n);
            }
        }
    }

    void
    squashAfter(uint64_t seq)
    {
        for (Reg &reg : regs)
            while (!reg.transients.empty() &&
                   reg.transients.back().first > seq)
                reg.transients.pop_back();
    }

    size_t
    transientCount() const
    {
        size_t n = 0;
        for (const Reg &reg : regs)
            n += reg.transients.size();
        return n;
    }

    /** The chex-snapshot-v2 register-tag document. */
    json::Value
    encode() const
    {
        json::Value out = json::Value::array();
        for (const Reg &reg : regs) {
            json::Value t = json::Value::array();
            for (auto [seq, pid] : reg.transients) {
                json::Value pair = json::Value::array();
                pair.push(seq);
                pair.push(uint64_t{pid});
                t.push(pair);
            }
            json::Value rec = json::Value::object();
            rec.set("finalized", uint64_t{reg.finalized});
            rec.set("transients", t);
            out.push(rec);
        }
        return out;
    }

  private:
    struct Reg
    {
        Pid finalized = NoPid;
        std::vector<std::pair<uint64_t, Pid>> transients;
    };
    Reg regs[NumArchRegs];
};

/** Every observable of @p tags equals the reference's. */
void
expectSame(const RegTagFile &tags, const ReferenceTags &ref,
           const std::string &step)
{
    SCOPED_TRACE(step);
    for (unsigned r = 0; r < NumArchRegs; ++r) {
        RegId reg = static_cast<RegId>(r);
        ASSERT_EQ(tags.current(reg), ref.current(reg)) << regName(reg);
        ASSERT_EQ(tags.committed(reg), ref.committed(reg)) << regName(reg);
    }
    ASSERT_EQ(tags.transientCount(), ref.transientCount());
    ASSERT_EQ(tags.encode().dump(0), ref.encode().dump(0));
}

TEST(RegTags, RingMatchesPerRegisterReference)
{
    // Directed: squash after the older transients committed, and an
    // MCU tag sharing the RET's seq on another register.
    {
        RegTagFile tags;
        ReferenceTags ref;
        auto both = [&](auto op) {
            op(tags);
            op(ref);
        };
        both([](auto &t) { t.write(RAX, 1, 1); });
        both([](auto &t) { t.write(RAX, 2, 2); });
        both([](auto &t) { t.write(RBX, 3, 2); });
        both([](auto &t) { t.write(RAX, 4, 3); });
        both([](auto &t) { t.commitUpTo(2); });
        ASSERT_NO_FATAL_FAILURE(expectSame(tags, ref, "commit 2"));
        both([](auto &t) { t.squashAfter(1); });
        ASSERT_NO_FATAL_FAILURE(
            expectSame(tags, ref, "squash 1 after commit 2"));
        EXPECT_EQ(tags.current(RAX), 2u);
        EXPECT_EQ(tags.current(RBX), 3u);
        both([](auto &t) { t.write(RAX, 5, 2); });
        both([](auto &t) { t.write(RCX, 6, 2); });
        ASSERT_NO_FATAL_FAILURE(
            expectSame(tags, ref, "rewrite at the squash point"));
    }

    for (uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Random rng(seed);
        RegTagFile tags;
        ReferenceTags ref;
        uint64_t seq = 0;
        uint64_t sameSeqRegs = 0; // registers written at seq
        auto write = [&](bool same_seq) {
            // A few hot registers make long per-register chains.
            unsigned r = static_cast<unsigned>(
                rng.chance(0.7) ? rng.uniform(0, 3)
                                : rng.uniform(0, NumArchRegs - 1));
            if (!same_seq || (sameSeqRegs >> r & 1)) {
                ++seq;
                sameSeqRegs = 0;
            }
            sameSeqRegs |= 1ull << r;
            Pid pid = static_cast<Pid>(rng.uniform(0, 50));
            tags.write(static_cast<RegId>(r), pid, seq);
            ref.write(static_cast<RegId>(r), pid, seq);
        };

        // Grow past the initial capacity twice with nothing committed.
        for (int i = 0; i < 600; ++i) {
            write(rng.chance(0.2));
            ASSERT_NO_FATAL_FAILURE(
                expectSame(tags, ref, "fill " + std::to_string(i)));
        }

        for (int step = 0; step < 4000; ++step) {
            std::string what = "step " + std::to_string(step);
            unsigned kind = static_cast<unsigned>(rng.uniform(0, 99));
            if (kind < 60) {
                write(rng.chance(0.2));
            } else if (kind < 80) {
                uint64_t to =
                    seq - std::min<uint64_t>(seq, rng.uniform(0, 64));
                tags.commitUpTo(to);
                ref.commitUpTo(to);
            } else if (kind < 95) {
                uint64_t after =
                    seq - std::min<uint64_t>(seq, rng.uniform(0, 48));
                tags.squashAfter(after);
                ref.squashAfter(after);
                // Refetch replays from after + 1.
                seq = after;
                sameSeqRegs = ~0ull;
            } else if (kind < 99) {
                // A snapshot round trip merges the lists by seq.
                RegTagFile back;
                back.write(RDX, 9, 1);
                std::string why;
                ASSERT_TRUE(back.decode(tags.encode(), &why)) << why;
                tags = back;
                what += " (decoded)";
            } else {
                tags.clear();
                ref = ReferenceTags{};
                seq = 0;
                sameSeqRegs = 0;
            }
            ASSERT_NO_FATAL_FAILURE(expectSame(tags, ref, what));
        }
    }
}

TEST(RegTags, DecodeRejectsDescendingTransients)
{
    RegTagFile tags;
    tags.write(RCX, 1, 4);
    tags.write(RCX, 2, 5);
    json::Value saved = tags.encode();
    json::Value swapped = json::Value::array();
    swapped.push(saved.at(RCX).at("transients").at(1));
    swapped.push(saved.at(RCX).at("transients").at(0));
    json::Value doc = json::Value::array();
    for (size_t r = 0; r < saved.size(); ++r) {
        json::Value rec = saved.at(r);
        if (r == RCX)
            rec.set("transients", swapped);
        doc.push(rec);
    }
    RegTagFile back;
    std::string why;
    EXPECT_FALSE(back.decode(doc, &why));
    EXPECT_EQ(why, "[" + std::to_string(RCX) +
                       "].transients[1] is not above the element "
                       "before it");
}

} // namespace
} // namespace chex
