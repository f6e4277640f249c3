#include "workloads/micro_env.h"

#include "base/logging.h"

namespace hpmp
{

MicroEnv::MicroEnv(const MachineParams &params, IsolationScheme scheme,
                   PagingMode mode, unsigned pmpt_levels)
    : machine_(std::make_unique<Machine>(params))
{
    pt_ = std::make_unique<PageTable>(machine_->mem(),
                                      bumpAllocator(kPtPool), mode);
    program(scheme, pmpt_levels);
    machine_->setSatp(pt_->rootPa(), mode);
    machine_->setPriv(PrivMode::User);
}

void
MicroEnv::program(IsolationScheme scheme, unsigned pmpt_levels)
{
    HpmpUnit &unit = machine_->hpmp();
    auto make_table = [&]() {
        table_ = std::make_unique<PmpTable>(
            machine_->mem(), bumpAllocator(64_MiB), pmpt_levels);
        table_->setPerm(kPtPool, kPtPoolSize, Perm::rw());
        table_->setPerm(kDataBase, kDataSize, Perm::rwx());
    };

    switch (scheme) {
      case IsolationScheme::None:
        unit.programSegment(0, 0, 16_GiB, Perm::rwx());
        break;
      case IsolationScheme::Pmp:
        unit.programSegment(0, kPtPool, kPtPoolSize, Perm::rw());
        unit.programSegment(1, kDataBase, kDataSize, Perm::rwx());
        break;
      case IsolationScheme::PmpTable:
        make_table();
        unit.programTable(0, 0, 16_GiB, table_->rootPa(), pmpt_levels);
        break;
      case IsolationScheme::Hpmp:
        unit.programSegment(0, kPtPool, kPtPoolSize, Perm::rw());
        make_table();
        unit.programTable(1, 0, 16_GiB, table_->rootPa(), pmpt_levels);
        break;
    }
}

Addr
MicroEnv::mapPages(unsigned npages, uint64_t va_stride_pages,
                   uint64_t pa_stride_pages, bool dirty)
{
    const Addr base = nextVa_;
    for (unsigned i = 0; i < npages; ++i) {
        const Addr va = base + pageAddr(i * va_stride_pages);
        const Addr pa = nextPa_;
        nextPa_ += pageAddr(pa_stride_pages);
        const bool ok = pt_->map(va, pa, Perm::rw(), true, 0, true, dirty);
        if (!ok)
            fatal("MicroEnv map collision at %#lx", va);
    }
    nextVa_ = base + pageAddr(npages * va_stride_pages + 8);
    machine_->sfenceVma();
    return base;
}

void
MicroEnv::cleanDirtyBit(Addr va)
{
    auto slot = pt_->leafPteAddr(va);
    if (!slot)
        return;
    Pte pte{machine_->mem().read64(*slot)};
    pte.setD(false);
    machine_->mem().write64(*slot, pte.raw);
}

} // namespace hpmp
