#include "os/address_space.h"

#include "base/logging.h"
#include "os/kernel.h"

namespace hpmp
{

AddressSpace::AddressSpace(Kernel &kernel)
    : kernel_(kernel),
      pt_(kernel.machine().mem(),
          [&kernel](unsigned npages) {
              return kernel.allocPtFrames(npages);
          },
          kernel.config().pagingMode)
{
}

AddressSpace::~AddressSpace()
{
    // Release all populated frames; PT frames stay with the pool (the
    // pool is reclaimed wholesale when the domain is destroyed).
    while (!vmas_.empty()) {
        const auto &[base, vma] = *vmas_.begin();
        munmap(base, vma.len);
    }
}

Addr
AddressSpace::mmap(uint64_t len, Perm perm, bool user, bool populate)
{
    const auto va = tryMmap(len, perm, user, populate);
    fatal_if(!va, "mmap of %#lx bytes: out of memory", len);
    return *va;
}

std::optional<Addr>
AddressSpace::tryMmap(uint64_t len, Perm perm, bool user, bool populate)
{
    // A fresh address never overlaps, so mapAt can only fail on
    // allocator exhaustion — and it unwinds itself, so mmapNext_ is
    // the only thing left to (not) advance.
    const Addr va = mmapNext_;
    if (!mapAt(va, len, perm, user, populate))
        return std::nullopt;
    return va;
}

bool
AddressSpace::mapAt(Addr va, uint64_t len, Perm perm, bool user,
                    bool populate)
{
    fatal_if(va % kPageSize || len == 0, "mapAt requires page alignment");
    len = alignUp(len, kPageSize);

    for (const auto &[base, vma] : vmas_) {
        if (base < va + len && va < base + vma.len)
            return false;
    }
    Vma &vma = vmas_[va];
    vma = Vma{va, len, perm, user, std::vector<bool>(pageNumber(len))};
    if (populate) {
        for (Addr page = va; page < va + len; page += kPageSize) {
            if (populatePage(vma, page))
                continue;
            // Out of memory mid-population: unwind the pages already
            // populated and the VMA so the call has no effect.
            for (Addr undo = va; undo < page; undo += kPageSize)
                releasePage(vma, undo);
            vmas_.erase(va);
            ++kernel_.osStats().mmapUnwinds;
            return false;
        }
    }
    if (va + len > mmapNext_)
        mmapNext_ = alignUp(va + len + kPageSize, kPageSize);
    ++kernel_.osStats().mmaps;
    return true;
}

bool
AddressSpace::populatePage(Vma &vma, Addr page_va)
{
    auto frame = kernel_.allocData(1);
    if (!frame)
        return false; // data frames exhausted
    if (!pt_.map(page_va, *frame, vma.perm, vma.user)) {
        // map() fails either because a PT frame could not be
        // allocated (typed OOM — give the data frame back) or because
        // a leaf already exists, which the present bits rule out.
        panic_if(pt_.translate(page_va).has_value(),
                 "double map at %#lx", page_va);
        kernel_.freeData(*frame, 1);
        return false;
    }
    vma.present[pageNumber(page_va - vma.base)] = true;
    ++populatedPages_;
    ++kernel_.osStats().pagesPopulated;
    return true;
}

void
AddressSpace::releasePage(Vma &vma, Addr page_va)
{
    const auto pa = pt_.translate(page_va);
    panic_if(!pa, "present page %#lx not mapped", page_va);
    pt_.unmap(page_va);
    kernel_.freeData(alignDown(*pa, kPageSize), 1);
    vma.present[pageNumber(page_va - vma.base)] = false;
    --populatedPages_;
}

bool
AddressSpace::mapFrameAt(Addr va, Addr pa, Perm perm, bool user)
{
    fatal_if(va % kPageSize || pa % kPageSize,
             "mapFrameAt requires page alignment");
    return pt_.map(va, pa, perm, user);
}

bool
AddressSpace::munmap(Addr va, uint64_t len)
{
    auto it = vmas_.find(va);
    if (it == vmas_.end() || it->second.len != alignUp(len, kPageSize))
        return false;

    Vma &vma = it->second;
    for (uint64_t i = 0; i < vma.present.size(); ++i) {
        if (vma.present[i])
            releasePage(vma, vma.base + pageAddr(i));
    }
    vmas_.erase(it);
    kernel_.machine().sfenceVma();
    ++kernel_.osStats().munmaps;
    return true;
}

AddressSpace::FaultHandleStatus
AddressSpace::tryHandleFault(Addr va, AccessType type)
{
    (void)type;
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin())
        return FaultHandleStatus::BadAddress;
    --it;
    Vma &vma = it->second;
    if (va >= vma.base + vma.len)
        return FaultHandleStatus::BadAddress;
    const Addr page = alignDown(va, kPageSize);
    if (vma.present[pageNumber(page - vma.base)])
        return FaultHandleStatus::BadAddress; // not demand paging
    if (!populatePage(vma, page))
        return FaultHandleStatus::OutOfMemory;
    ++faults_;
    ++kernel_.osStats().pageFaultsHandled;
    return FaultHandleStatus::Handled;
}

bool
AddressSpace::handleFault(Addr va, AccessType type)
{
    return tryHandleFault(va, type) == FaultHandleStatus::Handled;
}

bool
AddressSpace::populated(Addr va) const
{
    auto it = vmas_.upper_bound(va);
    if (it == vmas_.begin())
        return false;
    const Vma &vma = std::prev(it)->second;
    return va < vma.base + vma.len &&
           vma.present[pageNumber(va - vma.base)];
}

} // namespace hpmp
