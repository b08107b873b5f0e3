#include "codec.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "base/fnv.hh"

namespace chex
{
namespace snapshot
{

uint64_t
jsonStateHash(const json::Value &v)
{
    TaggedHasher h;
    h.str("snapshot.state"_tag, v.dump(0));
    return h.digest();
}

std::string
stateHashHex(uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

bool
stateHashFromHex(const std::string &hex, uint64_t *out)
{
    if (hex.size() != 16)
        return false;
    for (char c : hex) {
        bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
        if (!ok)
            return false;
    }
    *out = std::strtoull(hex.c_str(), nullptr, 16);
    return true;
}

bool
readTextFile(const std::string &path, std::string *out,
             std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "' for reading";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad()) {
        if (err)
            *err = "read error on '" + path + "'";
        return false;
    }
    *out = ss.str();
    return true;
}

bool
writeTextFile(const std::string &path, const std::string &text,
              std::string *err)
{
    std::ofstream outf(path, std::ios::binary | std::ios::trunc);
    if (!outf) {
        if (err)
            *err = "cannot open '" + path + "' for writing";
        return false;
    }
    outf << text;
    outf.flush();
    if (!outf) {
        if (err)
            *err = "write error on '" + path + "'";
        return false;
    }
    return true;
}

} // namespace snapshot
} // namespace chex
