#include "hierarchy.hh"

#include <bit>

#include "base/logging.hh"

namespace chex
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &cfg_in)
    : cfg(cfg_in),
      lineShift(std::countr_zero(cfg.lineBytes)),
      _l1i(cfg.l1Sets, cfg.l1Ways),
      _l1d(cfg.l1Sets, cfg.l1Ways),
      _l2(cfg.l2Sets, cfg.l2Ways)
{
    if (!std::has_single_bit(cfg.lineBytes))
        chex_fatal("cache line size %u is not a power of two",
                   cfg.lineBytes);
}

unsigned
MemoryHierarchy::dataAccess(uint64_t addr, bool is_write)
{
    uint64_t line = lineOf(addr);
    if (_l1d.access(line))
        return cfg.l1Latency;
    if (_l2.access(line)) {
        _l1d.insert(line);
        return cfg.l1Latency + cfg.l2Latency;
    }
    // Line fill from DRAM; writebacks are folded into write traffic.
    _l2.insert(line);
    _l1d.insert(line);
    meter.bytesRead += cfg.lineBytes;
    if (is_write)
        meter.bytesWritten += cfg.lineBytes;
    return cfg.l1Latency + cfg.l2Latency + cfg.dramLatency;
}

unsigned
MemoryHierarchy::fetchAccess(uint64_t addr)
{
    uint64_t line = lineOf(addr);
    // Next-line prefetch: fetch units stream sequential lines ahead,
    // so straight-line code only pays the first cold miss.
    uint64_t next = line + 1;
    if (!_l1i.probe(next)) {
        if (!_l2.probe(next)) {
            _l2.insert(next);
            meter.bytesRead += cfg.lineBytes;
        }
        _l1i.insert(next);
    }
    if (_l1i.access(line))
        return cfg.l1Latency;
    if (_l2.access(line)) {
        _l1i.insert(line);
        return cfg.l1Latency + cfg.l2Latency;
    }
    _l2.insert(line);
    _l1i.insert(line);
    meter.bytesRead += cfg.lineBytes;
    return cfg.l1Latency + cfg.l2Latency + cfg.dramLatency;
}

unsigned
MemoryHierarchy::shadowAccess(uint64_t addr)
{
    uint64_t line = lineOf(addr);
    if (_l2.access(line))
        return cfg.l2Latency;
    _l2.insert(line);
    meter.bytesRead += cfg.lineBytes;
    return cfg.l2Latency + cfg.dramLatency;
}

} // namespace chex
