#include "alias_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace chex
{

AliasTable::AliasTable()
{
    root = allocNode();
}

AliasTable::~AliasTable()
{
    freeSubtree(root, 0);
    for (Node *node : pool)
        delete node;
}

AliasTable::Node *
AliasTable::allocNode()
{
    ++_nodeCount;
    if (!pool.empty()) {
        Node *node = pool.back();
        pool.pop_back();
        node->slots.fill(0);
        node->liveSlots = 0;
        return node;
    }
    return new Node();
}

void
AliasTable::releaseNode(Node *node)
{
    --_nodeCount;
    pool.push_back(node);
}

void
AliasTable::freeSubtree(Node *node, unsigned level)
{
    if (level + 1 < Levels) {
        for (uint64_t slot : node->slots)
            if (slot)
                freeSubtree(reinterpret_cast<Node *>(slot), level + 1);
    }
    releaseNode(node);
}

unsigned
AliasTable::levelIndex(uint64_t addr, unsigned level)
{
    // Word index = VA[47:3]; level 0 uses the top 9 bits of it.
    uint64_t word = (addr >> 3) & ((1ull << 45) - 1);
    unsigned shift = BitsPerLevel * (Levels - 1 - level);
    return static_cast<unsigned>((word >> shift) & (Fanout - 1));
}

void
AliasTable::set(uint64_t addr, uint32_t pid)
{
    addr &= ~7ull;
    // Any mutation can change a memoized walk result — including
    // interior-node allocation or reclamation, which changes walk
    // depth for *other* words sharing the path — so drop the memo up
    // front.
    lastLookupWord = ~0ull;
    Node *path[Levels];
    unsigned indices[Levels];
    Node *node = root;
    for (unsigned level = 0; level + 1 < Levels; ++level) {
        path[level] = node;
        indices[level] = levelIndex(addr, level);
        uint64_t &slot = node->slots[indices[level]];
        if (!slot) {
            if (pid == 0)
                return; // nothing to erase
            slot = reinterpret_cast<uint64_t>(allocNode());
            ++node->liveSlots;
        }
        node = reinterpret_cast<Node *>(slot);
    }
    path[Levels - 1] = node;
    indices[Levels - 1] = levelIndex(addr, Levels - 1);
    uint64_t &leaf = node->slots[indices[Levels - 1]];
    uint64_t page = addr / 4096;
    auto was = static_cast<uint32_t>(leaf);
    if (was == pid)
        return;
    if (was == 0 && pid != 0) {
        ++_liveEntries;
        ++node->liveSlots;
        aliasPages.increment(page);
    } else if (was != 0 && pid == 0) {
        --_liveEntries;
        --node->liveSlots;
        aliasPages.decrement(page);
    }
    leaf = pid;
    if (pid != 0)
        return;
    // Reclaim the emptied tail of the path: a leaf whose last entry
    // was erased goes back to the pool, and the cascade walks up
    // through interior nodes emptied by that release. The root is
    // never released.
    for (unsigned level = Levels - 1;
         level > 0 && path[level]->liveSlots == 0; --level) {
        releaseNode(path[level]);
        path[level - 1]->slots[indices[level - 1]] = 0;
        --path[level - 1]->liveSlots;
    }
}

AliasWalkResult
AliasTable::lookup(uint64_t addr) const
{
    if (addr == lastLookupWord)
        return lastLookup;
    AliasWalkResult result;
    const Node *node = root;
    for (unsigned level = 0; level + 1 < Levels; ++level) {
        ++result.levelsTouched;
        uint64_t slot = node->slots[levelIndex(addr, level)];
        if (!slot) {
            lastLookupWord = addr;
            lastLookup = result;
            return result;
        }
        node = reinterpret_cast<const Node *>(slot);
    }
    ++result.levelsTouched;
    result.pid = static_cast<uint32_t>(
        node->slots[levelIndex(addr, Levels - 1)]);
    lastLookupWord = addr;
    lastLookup = result;
    return result;
}

uint32_t
AliasTable::get(uint64_t addr) const
{
    return lookup(addr & ~7ull).pid;
}

AliasWalkResult
AliasTable::walk(uint64_t addr) const
{
    return lookup(addr & ~7ull);
}

bool
AliasTable::pageHostsAliases(uint64_t addr) const
{
    return aliasPages.hosts(addr / 4096);
}

void
AliasTable::clear()
{
    freeSubtree(root, 0);
    chex_assert(_nodeCount == 0, "alias table leak");
    root = allocNode();
    _liveEntries = 0;
    aliasPages.clear();
    lastLookupWord = ~0ull;
}

void
AliasTable::encodeEntries(const Node *node, unsigned level,
                          uint64_t word, json::Value &out) const
{
    for (uint64_t i = 0; i < Fanout; ++i) {
        uint64_t slot = node->slots[i];
        if (!slot)
            continue;
        uint64_t w = word << BitsPerLevel | i;
        if (level + 1 < Levels) {
            encodeEntries(reinterpret_cast<const Node *>(slot), level + 1,
                          w, out);
        } else {
            out.push(json::encode(std::pair(w, static_cast<uint32_t>(slot))));
        }
    }
}

json::Value
AliasTable::encode() const
{
    json::Value out = json::Value::array();
    encodeEntries(root, 0, 0, out);
    return out;
}

bool
AliasTable::decode(const json::Value &v, std::string *why)
{
    clear();
    bool ok = json::decodePairs<uint64_t, uint32_t>(
        v,
        [this](uint64_t word, uint32_t pid, std::string *why) {
            if (word >> (BitsPerLevel * Levels))
                return json::reject(why, "[0] is past VA bit 47");
            if (pid == 0)
                return json::reject(why, "[1] is PID 0");
            set(word << 3, pid);
            return true;
        },
        why);
    if (!ok)
        clear();
    return ok;
}

} // namespace chex
