#include "os/kernel.h"

#include "base/bitfield.h"
#include "base/fault_inject.h"
#include "base/logging.h"
#include "os/address_space.h"

namespace hpmp
{

Kernel::Kernel(SecureMonitor &monitor, DomainId domain, Addr mem_base,
               uint64_t mem_size, const KernelConfig &config)
    : monitor_(monitor),
      domain_(domain),
      config_(config),
      memBase_(mem_base),
      memSize_(mem_size)
{
    // The data region starts past the PT-pool carve-out in *all*
    // configurations so that experiments comparing schemes see the
    // same physical data placement; the baseline simply does not use
    // the pool (its PT pages come from the data allocator).
    fatal_if(!isPowerOf2(config_.ptPoolBytes) ||
                 mem_base % config_.ptPoolBytes,
             "PT pool must be NAPOT within the domain region");
    const Addr data_base = mem_base + config_.ptPoolBytes;
    const uint64_t data_size = mem_size - config_.ptPoolBytes;

    if (config_.contiguousPtPool) {
        // Register the pool as one "fast" GMS — the monitor will
        // mirror it into a segment entry under the HPMP scheme.
        ptPoolBase_ = mem_base;
        ptAlloc_ = std::make_unique<PageAllocator>(ptPoolBase_,
                                                   config_.ptPoolBytes);
        auto res = monitor_.addGms(
            domain_, Gms{ptPoolBase_, config_.ptPoolBytes, Perm::rw(),
                         GmsLabel::Fast});
        fatal_if(!res.ok, "registering PT-pool GMS failed: %s",
                 res.error.c_str());
        registrationCycles_ += res.cycles;
        res = monitor_.addGms(
            domain_, Gms{data_base, data_size, Perm::rwx(),
                         GmsLabel::Slow});
        fatal_if(!res.ok, "registering data GMS failed: %s",
                 res.error.c_str());
        registrationCycles_ += res.cycles;
    } else {
        auto res = monitor_.addGms(
            domain_, Gms{mem_base, mem_size, Perm::rwx(),
                         GmsLabel::Slow});
        fatal_if(!res.ok, "registering domain GMS failed: %s",
                 res.error.c_str());
        registrationCycles_ += res.cycles;
    }

    dataAlloc_ = std::make_unique<PageAllocator>(data_base, data_size);
    dataAlloc_->setScatter(config_.scatterData, config_.scatterSeed);
}

Kernel::~Kernel() = default;

std::optional<Addr>
Kernel::allocData(unsigned npages)
{
    auto frame = dataAlloc_->alloc(npages);
    if (frame)
        ++osStats_.dataAllocs;
    else
        ++osStats_.dataAllocFails;
    return frame;
}

void
Kernel::freeData(Addr addr, unsigned npages)
{
    ++osStats_.dataFrees;
    dataAlloc_->free(addr, npages);
}

Addr
Kernel::allocPtFrames(unsigned npages)
{
    // "os.pt_pool_miss" simulates pool exhaustion without filling the
    // pool first: the request takes the same fallback path a full pool
    // would (paper §6 — PT pages not in the contiguous pool are still
    // protected, via the table instead of the fast segment).
    const bool pool_miss = FAULT_POINT("os.pt_pool_miss");
    if (ptAlloc_ && !pool_miss) {
        if (auto frame = ptAlloc_->alloc(npages)) {
            ++osStats_.ptPoolAllocs;
            return *frame;
        }
        warn("PT pool exhausted; falling back to the data allocator");
    }
    // Baseline / fallback: PT pages come from the general allocator.
    // Allocate from the top so data placement matches the pool
    // configuration; under scatter mode they spread like everything
    // else.
    auto frame = config_.scatterData ? dataAlloc_->alloc(npages)
                                     : dataAlloc_->allocTop(npages);
    if (!frame) {
        ++osStats_.ptAllocFails;
        return kAllocFailed; // typed exhaustion, caller unwinds
    }
    ++osStats_.ptFallbackAllocs;
    return *frame;
}

void
Kernel::freePtFrame(Addr frame)
{
    ++osStats_.ptFrees;
    if (ptAlloc_ && frame >= ptPoolBase_ &&
        frame < ptPoolBase_ + config_.ptPoolBytes) {
        ptAlloc_->free(frame, 1);
    } else {
        dataAlloc_->free(frame, 1);
    }
}

std::unique_ptr<AddressSpace>
Kernel::createAddressSpace()
{
    ++osStats_.addressSpaces;
    return std::make_unique<AddressSpace>(*this);
}

void
Kernel::activate(AddressSpace &as, PrivMode priv)
{
    ++osStats_.activations;
    Machine &m = machine();
    m.setSatp(as.rootPa(), config_.pagingMode);
    m.setPriv(priv);
}

void
Kernel::registerStats(StatRegistry &registry, const std::string &prefix)
{
    if (!statGroup_) {
        statGroup_ = std::make_unique<StatGroup>(prefix);
        statGroup_->add("data_allocs", &osStats_.dataAllocs);
        statGroup_->add("data_alloc_fails", &osStats_.dataAllocFails);
        statGroup_->add("data_frees", &osStats_.dataFrees);
        statGroup_->add("pt_pool_allocs", &osStats_.ptPoolAllocs);
        statGroup_->add("pt_fallback_allocs",
                        &osStats_.ptFallbackAllocs);
        statGroup_->add("pt_alloc_fails", &osStats_.ptAllocFails);
        statGroup_->add("pt_frees", &osStats_.ptFrees);
        statGroup_->add("address_spaces", &osStats_.addressSpaces);
        statGroup_->add("activations", &osStats_.activations);
        statGroup_->add("mmaps", &osStats_.mmaps);
        statGroup_->add("munmaps", &osStats_.munmaps);
        statGroup_->add("page_faults_handled",
                        &osStats_.pageFaultsHandled);
        statGroup_->add("pages_populated", &osStats_.pagesPopulated);
        statGroup_->add("mmap_unwinds", &osStats_.mmapUnwinds);
    }
    fatal_if(statGroup_->name() != prefix,
             "kernel stats already registered as '%s', not '%s'",
             statGroup_->name().c_str(), prefix.c_str());
    registry.add(statGroup_.get());
}

} // namespace hpmp
