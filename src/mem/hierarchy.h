/**
 * @file
 * Three-level cache + DRAM memory hierarchy.
 *
 * Mirrors Table 1: split L1 I/D, unified L2, shared LLC, DRAM. Every
 * physical reference made by the machine model (data, page-table page,
 * PMP-table entry) is routed through here so that the locality of
 * extra-dimensional walks is what actually produces the results.
 */

#ifndef HPMP_MEM_HIERARCHY_H
#define HPMP_MEM_HIERARCHY_H

#include <memory>

#include "mem/cache.h"
#include "mem/dram.h"

namespace hpmp
{

/** Where a reference was serviced. */
enum class MemLevel { L1, L2, LLC, Dram };

/** Outcome of one physical reference. */
struct MemAccessResult
{
    unsigned cycles = 0;
    MemLevel servicedBy = MemLevel::L1;
};

/** Configuration for the whole hierarchy. */
struct HierarchyParams
{
    CacheParams l1i;
    CacheParams l1d;
    CacheParams l2;
    CacheParams llc;
    DramParams dram;
};

/** Split-L1 / unified-L2 / LLC / DRAM chain with inclusive fills. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyParams &params);

    /** Timing access: looks up each level in turn, fills on the way. */
    MemAccessResult
    access(Addr pa, bool is_fetch = false)
    {
        MemAccessResult result;
        Cache &l1 = is_fetch ? *l1i_ : *l1d_;

        result.cycles += l1.latency();
        if (l1.access(pa)) {
            result.servicedBy = MemLevel::L1;
            return result;
        }
        return accessBelowL1(pa, result);
    }

    /** Make the line containing pa resident down to `deepest`. */
    void warmLine(Addr pa, MemLevel deepest = MemLevel::L1,
                  bool fetch_side = false);

    /** Evict the line containing pa from every level. */
    void flushLine(Addr pa);

    /** Invalidate all caches and close DRAM rows (cold machine). */
    void flushAll();

    Cache &l1d() { return *l1d_; }
    Cache &l1i() { return *l1i_; }
    Cache &l2() { return *l2_; }
    Cache &llc() { return *llc_; }
    Dram &dram() { return *dram_; }

    void resetStats();

  private:
    /** L1-miss continuation of access(). */
    MemAccessResult accessBelowL1(Addr pa, MemAccessResult result);

    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> llc_;
    std::unique_ptr<Dram> dram_;
};

} // namespace hpmp

#endif // HPMP_MEM_HIERARCHY_H
