/**
 * @file
 * Bare-machine test environment (paper §3, Figures 2 and 4).
 *
 * One Machine without a secure monitor, with its Sv39/48/57 page
 * table in a contiguous PT-page pool and its data pages in one
 * protected region, so each isolation scheme programs the HPMP
 * registers the way the monitor would:
 *
 *   None — one rwx segment over all of memory
 *   PMP  — PT pool and data region in segments
 *   PMPT — everything through the PMP Table
 *   HPMP — PT pool in a segment, the rest in the table
 *
 * This is the one place the host-side scheme layout of the
 * microbenchmarks, hpmp_sim and the machine tests lives; VirtEnv is
 * its guest-side counterpart.
 */

#ifndef HPMP_WORKLOADS_MICRO_ENV_H
#define HPMP_WORKLOADS_MICRO_ENV_H

#include <memory>

#include "core/machine.h"
#include "pmpt/pmp_table.h"
#include "pt/page_table.h"

namespace hpmp
{

/** Assembled bare-machine environment. */
class MicroEnv
{
  public:
    static constexpr Addr kPtPool = 256_MiB;
    static constexpr uint64_t kPtPoolSize = 16_MiB;
    static constexpr Addr kDataBase = 4_GiB;
    static constexpr uint64_t kDataSize = 4_GiB;
    /**
     * VA base with non-trivial VPN[2]/VPN[1] and data placement deep
     * inside the protected region: radix-structure *roots* otherwise
     * all sit at slot 0 of their pages and collapse into one L1 set,
     * which thrashes in a way real (spread-out) workloads do not.
     */
    static constexpr Addr kVaBase = 0x2A5A000000;
    static constexpr Addr kFirstDataPa = kDataBase + 417_MiB;

    /**
     * A user-mode machine with an empty page table of `mode` and the
     * HPMP registers programmed for `scheme`; PMPT and HPMP build a
     * PMP Table of `pmpt_levels` levels.
     */
    MicroEnv(const MachineParams &params, IsolationScheme scheme,
             PagingMode mode = PagingMode::Sv39, unsigned pmpt_levels = 2);

    /**
     * Map npages at a VA stride (in pages) with a PA stride, from the
     * next unused VA and data frame; returns the VA base. Pages are
     * created accessed; dirty per `dirty`.
     */
    Addr mapPages(unsigned npages, uint64_t va_stride_pages = 1,
                  uint64_t pa_stride_pages = 1, bool dirty = true);

    Machine &machine() { return *machine_; }
    PageTable &pt() { return *pt_; }
    /** The PMP Table; null under None and PMP. */
    PmpTable *table() { return table_.get(); }

    /** Clear the D bit of the leaf PTE for va (cache state untouched). */
    void cleanDirtyBit(Addr va);

  private:
    void program(IsolationScheme scheme, unsigned pmpt_levels);

    std::unique_ptr<Machine> machine_;
    std::unique_ptr<PageTable> pt_;
    std::unique_ptr<PmpTable> table_;
    Addr nextVa_ = kVaBase;
    Addr nextPa_ = kFirstDataPa;
};

} // namespace hpmp

#endif // HPMP_WORKLOADS_MICRO_ENV_H
