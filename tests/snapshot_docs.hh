/**
 * @file
 * Helpers shared by the snapshot reader tests: small paused machine
 * documents, and copies of a JSON document with one node edited.
 * json::Value is immutable below its root, so an edit rebuilds the
 * path down to the node.
 */

#ifndef CHEX_TESTS_SNAPSHOT_DOCS_HH
#define CHEX_TESTS_SNAPSHOT_DOCS_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace snapdocs
{

/** A small allocation- and pointer-heavy run, paused early. */
inline BenchmarkProfile
tinyProfile()
{
    return profileByName("xalancbmk").scaledBy(200);
}

constexpr uint64_t TinySeed = 7;
constexpr uint64_t TinyWarmup = 1500;

/** A System of @p kind loaded with the tiny workload. */
inline std::unique_ptr<System>
tinySystem(VariantKind kind)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    auto sys = std::make_unique<System>(cfg);
    sys->load(generateWorkload(tinyProfile(), TinySeed));
    return sys;
}

/** The snapshot of the tiny workload paused at TinyWarmup. */
inline json::Value
tinySnapshot(VariantKind kind)
{
    auto sys = tinySystem(kind);
    sys->runMacros(TinyWarmup);
    std::string err;
    return sys->saveSnapshot(&err);
}

/** A node's path: object member names and array indices. */
using Path = std::vector<std::string>;

/** The path as the reader names it: "machine.core.regReady[28]". */
inline std::string
pathName(const json::Value &doc, const Path &path)
{
    std::string out;
    const json::Value *node = &doc;
    for (const std::string &step : path) {
        if (node->isArray()) {
            out += "[" + step + "]";
            node = &node->at(std::stoul(step));
        } else {
            out += (out.empty() ? "" : ".") + step;
            node = &node->at(step);
        }
    }
    return out;
}

/** The node at @p path. */
inline const json::Value &
nodeAt(const json::Value &doc, const Path &path)
{
    const json::Value *node = &doc;
    for (const std::string &step : path)
        node = node->isArray() ? &node->at(std::stoul(step))
                               : &node->at(step);
    return *node;
}

/** What an edit does to the node it reaches: a replacement, or
 * std::nullopt to remove it from its parent. */
using Edit =
    std::function<std::optional<json::Value>(const json::Value &)>;

/** A copy of @p v with @p edit applied to the node at @p path. */
inline json::Value
edited(const json::Value &v, const Path &path, const Edit &edit,
       size_t depth = 0)
{
    if (depth == path.size())
        return *edit(v);
    auto child = [&](const json::Value &c) -> std::optional<json::Value> {
        if (depth + 1 == path.size())
            return edit(c);
        return edited(c, path, edit, depth + 1);
    };
    if (v.isArray()) {
        json::Value out = json::Value::array();
        for (size_t i = 0; i < v.size(); ++i) {
            if (std::to_string(i) != path[depth]) {
                out.push(v.at(i));
            } else if (auto c = child(v.at(i))) {
                out.push(std::move(*c));
            }
        }
        return out;
    }
    json::Value out = json::Value::object();
    for (const auto &[key, member] : v.members()) {
        if (key != path[depth]) {
            out.set(key, member);
        } else if (auto c = child(member)) {
            out.set(key, std::move(*c));
        }
    }
    return out;
}

/** A value of another kind than @p v. */
inline json::Value
otherKind(const json::Value &v)
{
    if (v.isNumber() || v.isBool() || v.isNull())
        return json::Value("x");
    if (v.isString())
        return json::Value(uint64_t{0});
    if (v.isArray())
        return json::Value::object();
    return json::Value::array();
}

} // namespace snapdocs
} // namespace chex

#endif // CHEX_TESTS_SNAPSHOT_DOCS_HH
