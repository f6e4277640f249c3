/**
 * @file
 * IOPMP-style DMA protection (paper §9: "I/O protection using
 * table-based physical memory isolation").
 *
 * Device masters do not translate through the MMU, so their accesses
 * bypass the CPU-side checker; IOPMP places the same segment/table
 * hybrid in front of the bus masters. Each master (source ID) gets
 * its own HPMP-style entry file — typically a couple of segment
 * entries for its MMIO/DMA windows, or a table-mode pair sharing the
 * domain's PMP Table for page-granular windows.
 */

#ifndef HPMP_HPMP_IOPMP_H
#define HPMP_HPMP_IOPMP_H

#include <memory>
#include <vector>

#include "hpmp/hpmp_unit.h"
#include "mem/hierarchy.h"
#include "mem/shared_bus.h"

namespace hpmp
{

/** Identifier of a bus master (DMA source ID). */
using MasterId = uint32_t;

/** Per-master hybrid protection in front of the interconnect. */
class IopmpUnit
{
  public:
    /**
     * @param num_masters devices with distinct source IDs
     * @param entries_per_master entry-file depth per device
     */
    IopmpUnit(PhysMem &mem, unsigned num_masters,
              unsigned entries_per_master = 4);

    /** The backing store the masters check against (poison lookups). */
    PhysMem &mem() { return mem_; }

    /** The entry file of one master (to program windows). */
    HpmpUnit &master(MasterId id);

    /**
     * Check one DMA beat. Devices have no privilege levels: any
     * uncovered access is denied (checked as user privilege).
     */
    HpmpCheckResult check(MasterId id, Addr pa, uint64_t size,
                          AccessType type);

    /** Drop all masters' PMPTW-cache state (table update). */
    void flushCaches();

    uint64_t denials() const { return denials_.value(); }
    uint64_t checks() const { return checks_.value(); }

    /** "iopmp" aggregate group (checks, denials). */
    StatGroup &stats() { return stats_; }

    /**
     * Register the aggregate "iopmp" group plus one group per master
     * ("iopmp.master<N>" with the full HpmpUnit counter set and its
     * "iopmp.master<N>.pmptw_cache" child) with a registry.
     */
    void registerStats(StatRegistry &registry);

  private:
    PhysMem &mem_;
    std::vector<std::unique_ptr<HpmpUnit>> masters_;
    Counter checks_;  //!< DMA beats checked (all masters)
    Counter denials_;

    StatGroup stats_{"iopmp"};
    std::vector<std::unique_ptr<StatGroup>> masterStats_;
};

/**
 * A DMA engine model: performs timed transfers through the memory
 * hierarchy, each 64-byte beat checked by the IOPMP.
 */
class DmaEngine
{
  public:
    DmaEngine(IopmpUnit &iopmp, MemoryHierarchy &hier, MasterId id)
        : iopmp_(iopmp),
          hier_(hier),
          id_(id)
    {
    }

    /**
     * Attach (or detach, nullptr) a shared interconnect. When
     * attached, every beat — IOPMP table references plus the data
     * read and write — must win the bus before it runs, and the
     * arbitration stall is added to the transfer's cycles. The
     * engine keeps a local clock across transfers so masters that
     * start "at the same time" genuinely contend.
     */
    void attachBus(SharedBus *bus) { bus_ = bus; }

    /** The engine's local clock (advances with transfers). */
    uint64_t now() const { return now_; }

    /** Result of one transfer. */
    struct TransferResult
    {
        bool ok = true;
        /** The failing beat consumed poison (uncorrectable error)
         *  rather than being denied by the IOPMP. */
        bool machineCheck = false;
        Addr faultAddr = 0;
        uint64_t cycles = 0; //!< total, including bus stalls
        /** Cycles stalled waiting for the shared bus (0 unattached). */
        uint64_t busWaitCycles = 0;
        unsigned beats = 0;
        unsigned pmptRefs = 0;
    };

    /** Copy-like transfer: read src, write dst, 64 B beats. */
    TransferResult transfer(Addr src, Addr dst, uint64_t bytes);

  private:
    IopmpUnit &iopmp_;
    MemoryHierarchy &hier_;
    MasterId id_;
    SharedBus *bus_ = nullptr;
    uint64_t now_ = 0;
};

} // namespace hpmp

#endif // HPMP_HPMP_IOPMP_H
