#include "os/page_alloc.h"

#include "base/bitfield.h"
#include "base/fault_inject.h"
#include "base/logging.h"

namespace hpmp
{

PageAllocator::PageAllocator(Addr base, uint64_t size)
    : base_(base),
      size_(size)
{
    fatal_if(base % kPageSize || size % kPageSize,
             "allocator range must be page aligned");
    free_.insert(base, size);
}

std::optional<Addr>
PageAllocator::alloc(unsigned npages, uint64_t align)
{
    // Injected exhaustion: callers must treat it exactly like the
    // pool genuinely running dry.
    if (FAULT_POINT("os.page_alloc"))
        return std::nullopt;

    const uint64_t bytes = uint64_t(npages) * kPageSize;

    if (scatter_ && npages == 1 && align <= kPageSize) {
        // A random free interval, then a random page inside it.
        const size_t count = free_.intervalCount();
        if (count == 0)
            return std::nullopt;
        return free_.eraseInNth(
            rng_.below(count), kPageSize, [this](uint64_t ival_size) {
                return pageAddr(rng_.below(ival_size / kPageSize));
            });
    }

    const auto fit = free_.findFit(bytes, align);
    if (!fit)
        return std::nullopt;
    const bool ok = free_.erase(*fit, bytes);
    panic_if(!ok, "findFit returned an unusable range");
    return *fit;
}

std::optional<Addr>
PageAllocator::allocTop(unsigned npages)
{
    if (FAULT_POINT("os.page_alloc"))
        return std::nullopt;

    const uint64_t bytes = uint64_t(npages) * kPageSize;
    const auto fit = free_.findLastFit(bytes);
    if (!fit)
        return std::nullopt;
    const bool ok = free_.erase(*fit, bytes);
    panic_if(!ok, "allocTop erase failed");
    return *fit;
}

std::optional<Addr>
PageAllocator::allocNapot(uint64_t size)
{
    fatal_if(!isPowerOf2(size) || size < kPageSize,
             "NAPOT size must be a power of two >= 4 KiB");
    return alloc(unsigned(size / kPageSize), size);
}

void
PageAllocator::free(Addr addr, unsigned npages)
{
    const bool ok = free_.insert(addr, uint64_t(npages) * kPageSize);
    panic_if(!ok, "double free at %#lx", addr);
}

void
PageAllocator::setScatter(bool on, uint64_t seed)
{
    scatter_ = on;
    rng_.reseed(seed);
}

} // namespace hpmp
