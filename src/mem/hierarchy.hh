/**
 * @file
 * Cache-hierarchy timing and traffic model: L1I + L1D (32 KiB 8-way,
 * per Table III), a unified L2, and DRAM. Produces per-access
 * latencies for the pipeline and counts DRAM traffic for the
 * bandwidth evaluation (Figure 9 bottom).
 */

#ifndef CHEX_MEM_HIERARCHY_HH
#define CHEX_MEM_HIERARCHY_HH

#include <cstdint>
#include <string>

#include "mem/cache.hh"

namespace chex
{

/** Hierarchy geometry and latencies (cycles). */
struct HierarchyConfig
{
    unsigned lineBytes = 64; // a power of two
    // L1: 32 KiB, 8-way (Table III)
    unsigned l1Sets = 64;
    unsigned l1Ways = 8;
    unsigned l1Latency = 4;
    // L2: 1 MiB, 16-way
    unsigned l2Sets = 1024;
    unsigned l2Ways = 16;
    unsigned l2Latency = 14;
    unsigned dramLatency = 180;
};

/** DRAM byte counters. */
struct TrafficMeter
{
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;

    uint64_t total() const { return bytesRead + bytesWritten; }
    void reset() { bytesRead = bytesWritten = 0; }
};

/** Two-level cache + DRAM timing model for one core. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &cfg = {});

    /** Data access; returns total latency in cycles. */
    unsigned dataAccess(uint64_t addr, bool is_write);

    /** Instruction fetch access; returns latency in cycles. */
    unsigned fetchAccess(uint64_t addr);

    /**
     * A shadow-structure access issued by hardware (alias-table
     * walker, capability-table fill): touches L2 then DRAM, and is
     * charged as read traffic.
     */
    unsigned shadowAccess(uint64_t addr);

    const TrafficMeter &traffic() const { return meter; }
    TrafficMeter &traffic() { return meter; }

    SetAssocCache &l1d() { return _l1d; }
    SetAssocCache &l1i() { return _l1i; }
    SetAssocCache &l2() { return _l2; }

    const HierarchyConfig &config() const { return cfg; }

    /** The line index of @p addr (addr / lineBytes, as a shift). */
    uint64_t lineOf(uint64_t addr) const { return addr >> lineShift; }

    /** @{ @name Snapshot state (chex-snapshot-v2, base/fields.hh) */
    template <typename S, typename F>
    static void
    fields(S &s, F &&f)
    {
        f("l1i", s._l1i);
        f("l1d", s._l1d);
        f("l2", s._l2);
        f("bytesRead", s.meter.bytesRead);
        f("bytesWritten", s.meter.bytesWritten);
    }
    /** @} */

  private:
    HierarchyConfig cfg;
    unsigned lineShift; // log2(lineBytes); the constructor checks it
    SetAssocCache _l1i;
    SetAssocCache _l1d;
    SetAssocCache _l2;
    TrafficMeter meter;
};

} // namespace chex

#endif // CHEX_MEM_HIERARCHY_HH
