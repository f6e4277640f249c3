#include "mem/phys_mem.h"

#include <cstring>

#include "base/logging.h"

namespace hpmp
{

void
PhysMem::checkRange(Addr addr, uint64_t len) const
{
    panic_if(addr + len > size_ || addr + len < addr,
             "physical access [%#lx, +%lu) out of range (size %#lx)",
             addr, (unsigned long)len, size_);
}

PhysMem::Page &
PhysMem::pageFor(Addr addr)
{
    const uint64_t pn = pageNumber(addr);
    PageSlot &cached = pageCache_[pn & (kPageCacheSlots - 1)];
    if (cached.pn == pn)
        return *cached.page;

    auto &slot = pages_[pn];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    cached = {pn, slot.get()};
    return *slot;
}

const PhysMem::Page *
PhysMem::pageForConst(Addr addr) const
{
    const uint64_t pn = pageNumber(addr);
    PageSlot &cached = pageCache_[pn & (kPageCacheSlots - 1)];
    if (cached.pn == pn)
        return cached.page;

    auto it = pages_.find(pn);
    if (it == pages_.end())
        return nullptr;
    cached = {pn, it->second.get()};
    return it->second.get();
}

uint64_t
PhysMem::read64(Addr addr) const
{
    checkRange(addr, 8);
    panic_if(addr & 7, "misaligned read64 at %#lx", addr);
    const Page *page = pageForConst(addr);
    if (!page)
        return 0;
    uint64_t v;
    std::memcpy(&v, page->data() + pageOffset(addr), 8);
    return v;
}

void
PhysMem::write64(Addr addr, uint64_t value)
{
    checkRange(addr, 8);
    panic_if(addr & 7, "misaligned write64 at %#lx", addr);
    std::memcpy(pageFor(addr).data() + pageOffset(addr), &value, 8);
}

uint8_t
PhysMem::read8(Addr addr) const
{
    checkRange(addr, 1);
    const Page *page = pageForConst(addr);
    return page ? (*page)[pageOffset(addr)] : 0;
}

void
PhysMem::write8(Addr addr, uint8_t value)
{
    checkRange(addr, 1);
    pageFor(addr)[pageOffset(addr)] = value;
}

void
PhysMem::readBytes(Addr addr, void *buf, uint64_t len) const
{
    checkRange(addr, len);
    auto *out = static_cast<uint8_t *>(buf);
    while (len > 0) {
        const uint64_t chunk =
            std::min<uint64_t>(len, kPageSize - pageOffset(addr));
        const Page *page = pageForConst(addr);
        if (page)
            std::memcpy(out, page->data() + pageOffset(addr), chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
PhysMem::writeBytes(Addr addr, const void *buf, uint64_t len)
{
    checkRange(addr, len);
    const auto *in = static_cast<const uint8_t *>(buf);
    while (len > 0) {
        const uint64_t chunk =
            std::min<uint64_t>(len, kPageSize - pageOffset(addr));
        std::memcpy(pageFor(addr).data() + pageOffset(addr), in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

const uint8_t *
PhysMem::pageData(Addr addr) const
{
    checkRange(addr, 1);
    const Page *page = pageForConst(addr);
    return page ? page->data() : nullptr;
}

void
PhysMem::zeroPage(Addr page_base)
{
    checkRange(page_base, kPageSize);
    panic_if(pageOffset(page_base) != 0,
             "zeroPage on unaligned address %#lx", page_base);
    pageFor(page_base).fill(0);
}

void
PhysMem::releasePage(Addr page_base)
{
    checkRange(page_base, kPageSize);
    panic_if(pageOffset(page_base) != 0,
             "releasePage on unaligned address %#lx", page_base);
    const uint64_t pn = pageNumber(page_base);
    PageSlot &cached = pageCache_[pn & (kPageCacheSlots - 1)];
    if (cached.pn == pn)
        cached = PageSlot{};
    pages_.erase(pn);
}

void
PhysMem::poisonPage(Addr page_base)
{
    checkRange(page_base, kPageSize);
    panic_if(pageOffset(page_base) != 0,
             "poisonPage on unaligned address %#lx", page_base);
    poison_[pageNumber(page_base)] = ~0ULL;
}

void
PhysMem::poisonLine(Addr addr)
{
    checkRange(addr, 1);
    poison_[pageNumber(addr)] |=
        1ULL << (pageOffset(addr) / kPoisonGranule);
}

void
PhysMem::clearPoison(Addr page_base)
{
    checkRange(page_base, kPageSize);
    panic_if(pageOffset(page_base) != 0,
             "clearPoison on unaligned address %#lx", page_base);
    poison_.erase(pageNumber(page_base));
}

void
PhysMem::clearPoisonLine(Addr addr)
{
    checkRange(addr, 1);
    const auto it = poison_.find(pageNumber(addr));
    if (it == poison_.end())
        return;
    it->second &= ~(1ULL << (pageOffset(addr) / kPoisonGranule));
    if (it->second == 0)
        poison_.erase(it);
}

bool
PhysMem::isPoisoned(Addr addr, uint64_t len) const
{
    if (poison_.empty() || len == 0)
        return false;
    checkRange(addr, len);
    Addr granule = addr & ~(kPoisonGranule - 1);
    const Addr last = (addr + len - 1) & ~(kPoisonGranule - 1);
    while (true) {
        const auto it = poison_.find(pageNumber(granule));
        if (it != poison_.end() &&
            (it->second &
             (1ULL << (pageOffset(granule) / kPoisonGranule)))) {
            return true;
        }
        if (granule == last)
            return false;
        granule += kPoisonGranule;
    }
}

} // namespace hpmp
