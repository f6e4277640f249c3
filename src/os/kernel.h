/**
 * @file
 * OS-kernel model for one domain (host or enclave).
 *
 * The kernel owns the domain's physical memory (registered as GMSs
 * with the secure monitor), allocates frames for data and page-table
 * pages, and creates address spaces. Its HPMP support is the ~700-LoC
 * Linux change the paper describes: all page-table pages come from a
 * single contiguous pool, which the kernel registers as one GMS
 * labelled "fast" so the monitor can mirror it into a segment entry.
 */

#ifndef HPMP_OS_KERNEL_H
#define HPMP_OS_KERNEL_H

#include <memory>
#include <string>
#include <vector>

#include "base/stats.h"
#include "monitor/secure_monitor.h"
#include "os/page_alloc.h"

namespace hpmp
{

class AddressSpace;

/**
 * OS-layer event counters, aggregated per kernel across all of its
 * address spaces. Dumped as "<prefix>.*" (default "os.*") when the
 * kernel is registered with a StatRegistry — chaos campaigns use
 * per-hart prefixes ("hart1.os", ...) so SMP runs stay separable.
 */
struct KernelStats
{
    Counter dataAllocs;        //!< data-frame allocations served
    Counter dataAllocFails;    //!< data-frame allocator exhaustions
    Counter dataFrees;
    Counter ptPoolAllocs;      //!< PT frames served from the fast pool
    Counter ptFallbackAllocs;  //!< PT frames from the general allocator
    Counter ptAllocFails;      //!< PT-frame exhaustion (typed kAllocFailed)
    Counter ptFrees;
    Counter addressSpaces;     //!< address spaces created
    Counter activations;       //!< satp switches via Kernel::activate
    Counter mmaps;             //!< successful mmap/mapAt calls
    Counter munmaps;
    Counter pageFaultsHandled; //!< demand-paging faults populated
    Counter pagesPopulated;    //!< frames mapped (eager + demand)
    Counter mmapUnwinds;       //!< mid-population OOM rollbacks
};

/** Kernel policy knobs. */
struct KernelConfig
{
    /**
     * Allocate all PT pages from one contiguous pool registered as a
     * fast GMS (the HPMP OS extension). When false, PT pages come
     * from the general allocator like any other page (baseline).
     */
    bool contiguousPtPool = true;
    uint64_t ptPoolBytes = 16_MiB;

    /** Fragment data-page placement (paper §8.8). */
    bool scatterData = false;
    uint64_t scatterSeed = 1;

    PagingMode pagingMode = PagingMode::Sv39;
};

/** The per-domain kernel. */
class Kernel
{
  public:
    /**
     * @param mem_base/mem_size the domain's physical memory; must be
     *        NAPOT when the monitor runs in plain-PMP mode.
     */
    Kernel(SecureMonitor &monitor, DomainId domain, Addr mem_base,
           uint64_t mem_size, const KernelConfig &config);
    ~Kernel();

    Machine &machine() { return monitor_.machine(); }
    SecureMonitor &monitor() { return monitor_; }
    const KernelConfig &config() const { return config_; }

    /** Allocate data frames (scatter-aware). */
    std::optional<Addr> allocData(unsigned npages);
    void freeData(Addr base, unsigned npages);

    /**
     * Allocate page-table frames: from the contiguous pool when
     * configured, falling back to the general allocator on pool
     * exhaustion (§6 — such PT pages are protected through the table
     * instead of the pool's fast segment).
     * @return frame base, or kAllocFailed when memory is exhausted.
     */
    Addr allocPtFrames(unsigned npages);

    /** Return one PT frame to whichever allocator owns it. */
    void freePtFrame(Addr frame);

    /** Create a new user address space. */
    std::unique_ptr<AddressSpace> createAddressSpace();

    /** Point the MMU at this address space and set privilege. */
    void activate(AddressSpace &as, PrivMode priv);

    /**
     * Cycles of the monitor calls the constructor made to register
     * this kernel's memory (one addGms, or two with a PT pool).
     */
    uint64_t registrationCycles() const { return registrationCycles_; }

    /** Base of the PT pool (for tests), 0 when not configured. */
    Addr ptPoolBase() const { return ptPoolBase_; }

    PageAllocator &dataAllocator() { return *dataAlloc_; }

    /** OS-layer counters (address spaces bump these too). */
    KernelStats &osStats() { return osStats_; }
    const KernelStats &osStats() const { return osStats_; }

    /**
     * Register the OS-layer counters as one "<prefix>" group. The
     * group is built on first call with that prefix; later calls
     * re-register the same group (the prefix must not change).
     */
    void registerStats(StatRegistry &registry,
                       const std::string &prefix = "os");

  private:
    SecureMonitor &monitor_;
    DomainId domain_;
    KernelConfig config_;
    Addr memBase_;
    uint64_t memSize_;

    Addr ptPoolBase_ = 0;
    uint64_t registrationCycles_ = 0;
    std::unique_ptr<PageAllocator> ptAlloc_;   //!< pool allocator
    std::unique_ptr<PageAllocator> dataAlloc_; //!< everything else

    KernelStats osStats_;
    std::unique_ptr<StatGroup> statGroup_; //!< built by registerStats
};

} // namespace hpmp

#endif // HPMP_OS_KERNEL_H
