/**
 * @file
 * Deterministic mutation fuzzing of the snapshot reader. From a
 * fixed seed and for a fixed number of iterations, each case takes a
 * saved machine document (baseline and ucode-pred), mutates one node
 * — drops it, changes its kind, sets it to -1, 1.5 or 2^64, truncates
 * or duplicates an array element — and restores the result. Two
 * properties must hold:
 *  - restoreSnapshot() never aborts: it accepts or rejects;
 *  - an accepted document is canonical: saving the restored system
 *    reproduces it byte for byte, so nothing was defaulted, clamped,
 *    truncated, reordered or deduplicated on the way in.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/random.hh"
#include "snapshot_docs.hh"

using namespace chex;
using snapdocs::Path;

namespace
{

constexpr uint64_t FuzzSeed = 0x5eed5eed;
constexpr unsigned Iterations = 1000;

/** A random node of @p doc: descend into a random child while the
 * node has one and a coin lands heads. */
Path
randomPath(const json::Value &doc, Random &rng)
{
    Path path;
    const json::Value *node = &doc;
    while ((node->isArray() || node->isObject()) && node->size() > 0 &&
           (path.empty() || rng.chance(0.8))) {
        size_t i = rng.uniform(0, node->size() - 1);
        if (node->isArray()) {
            path.push_back(std::to_string(i));
            node = &node->at(i);
        } else {
            path.push_back(node->members()[i].first);
            node = &node->members()[i].second;
        }
    }
    return path;
}

/** One random mutation of a node; std::nullopt drops it. */
std::optional<json::Value>
mutate(const json::Value &node, Random &rng, std::string *what)
{
    switch (rng.uniform(0, 6)) {
      case 0:
        *what = "drop";
        return std::nullopt;
      case 1:
        *what = "other kind";
        return snapdocs::otherKind(node);
      case 2:
        *what = "-1";
        return json::Value(-1);
      case 3:
        *what = "1.5";
        return json::Value(1.5);
      case 4:
        *what = "2^64";
        return json::Value(18446744073709551616.0);
      default:
        break;
    }
    if (!node.isArray() || node.size() == 0) {
        *what = "other kind";
        return snapdocs::otherKind(node);
    }
    // Truncate the array, or repeat one of its elements in place.
    bool truncate = rng.chance(0.5);
    size_t pick = rng.uniform(0, node.size() - 1);
    *what = truncate ? "truncate" : "duplicate [" + std::to_string(pick) + "]";
    json::Value out = json::Value::array();
    for (size_t i = 0; i < node.size(); ++i) {
        if (truncate && i + 1 == node.size())
            break;
        out.push(node.at(i));
        if (!truncate && i == pick)
            out.push(node.at(i));
    }
    return out;
}

} // anonymous namespace

TEST(SnapshotFuzz, RestoreNeverAbortsAndAcceptsOnlyCanonicalDocuments)
{
    Random rng(FuzzSeed);
    for (VariantKind kind :
         {VariantKind::Baseline, VariantKind::MicrocodePrediction}) {
        SCOPED_TRACE(variantName(kind));
        json::Value doc = snapdocs::tinySnapshot(kind);
        ASSERT_FALSE(doc.isNull());
        auto sys = snapdocs::tinySystem(kind);
        unsigned accepted = 0;
        for (unsigned iter = 0; iter < Iterations; ++iter) {
            Path path = randomPath(doc, rng);
            std::string what;
            json::Value mutated = snapdocs::edited(
                doc, path, [&](const json::Value &node) {
                    auto m = mutate(node, rng, &what);
                    // The root itself cannot be dropped.
                    return m || !path.empty() ? m : json::Value(1.5);
                });
            SCOPED_TRACE("iteration " + std::to_string(iter) + ": " +
                         what + " at " +
                         snapdocs::pathName(doc, path));
            std::string err;
            if (!sys->restoreSnapshot(mutated, &err)) {
                EXPECT_EQ(err.rfind("snapshot: ", 0), 0u) << err;
                continue;
            }
            ++accepted;
            json::Value again = sys->saveSnapshot(&err);
            ASSERT_FALSE(again.isNull()) << err;
            EXPECT_EQ(again.dump(0), mutated.dump(0));
        }
        // Some mutations (a shorter list, a repeated pending record,
        // a double set to 1.5) leave a valid document.
        EXPECT_GT(accepted, 0u);
    }
}
