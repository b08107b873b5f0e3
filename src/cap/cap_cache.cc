#include "cap_cache.hh"

namespace chex
{

CapabilityCache::CapabilityCache(unsigned entries)
    : cache(1, entries)
{
}

bool
CapabilityCache::lookup(Pid pid)
{
    if (cache.access(pid))
        return true;
    cache.insert(pid);
    return false;
}

void
CapabilityCache::invalidate(Pid pid)
{
    cache.invalidate(pid);
    ++_invalidationsSent;
}

} // namespace chex
