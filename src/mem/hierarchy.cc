#include "mem/hierarchy.h"

namespace hpmp
{

MemoryHierarchy::MemoryHierarchy(const HierarchyParams &params)
    : l1i_(std::make_unique<Cache>(params.l1i)),
      l1d_(std::make_unique<Cache>(params.l1d)),
      l2_(std::make_unique<Cache>(params.l2)),
      llc_(std::make_unique<Cache>(params.llc)),
      dram_(std::make_unique<Dram>(params.dram))
{
}

MemAccessResult
MemoryHierarchy::accessBelowL1(Addr pa, MemAccessResult result)
{
    result.cycles += l2_->latency();
    if (l2_->access(pa)) {
        result.servicedBy = MemLevel::L2;
        return result;
    }
    result.cycles += llc_->latency();
    if (llc_->access(pa)) {
        result.servicedBy = MemLevel::LLC;
        return result;
    }
    result.cycles += dram_->access(pa);
    result.servicedBy = MemLevel::Dram;
    return result;
}

void
MemoryHierarchy::warmLine(Addr pa, MemLevel deepest, bool fetch_side)
{
    // Insert from the outside in so "deepest" is the closest level the
    // line is resident in (warming only the LLC leaves L1/L2 cold).
    switch (deepest) {
      case MemLevel::L1:
        (fetch_side ? *l1i_ : *l1d_).touch(pa);
        [[fallthrough]];
      case MemLevel::L2:
        l2_->touch(pa);
        [[fallthrough]];
      case MemLevel::LLC:
        llc_->touch(pa);
        break;
      case MemLevel::Dram:
        break;
    }
}

void
MemoryHierarchy::flushLine(Addr pa)
{
    l1i_->flushLine(pa);
    l1d_->flushLine(pa);
    l2_->flushLine(pa);
    llc_->flushLine(pa);
}

void
MemoryHierarchy::flushAll()
{
    l1i_->flushAll();
    l1d_->flushAll();
    l2_->flushAll();
    llc_->flushAll();
    dram_->precharge();
}

void
MemoryHierarchy::resetStats()
{
    l1i_->resetStats();
    l1d_->resetStats();
    l2_->resetStats();
    llc_->resetStats();
    dram_->resetStats();
}

} // namespace hpmp
