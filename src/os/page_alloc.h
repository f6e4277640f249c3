/**
 * @file
 * Physical frame allocator for the OS model.
 *
 * First-fit over an interval set, with an optional *scatter* mode that
 * deliberately randomizes placement to create the fragmented-physical-
 * pages conditions of the paper's §8.8 (on-demand paging, co-location
 * and virtualization all fragment physical memory in practice).
 */

#ifndef HPMP_OS_PAGE_ALLOC_H
#define HPMP_OS_PAGE_ALLOC_H

#include <optional>

#include "base/interval_set.h"
#include "base/rng.h"

namespace hpmp
{

/** First-fit page allocator with optional randomized placement. */
class PageAllocator
{
  public:
    PageAllocator(Addr base, uint64_t size);

    /**
     * Allocate npages contiguous frames aligned to `align` bytes.
     * @return base address, or nullopt when exhausted.
     */
    std::optional<Addr> alloc(unsigned npages,
                              uint64_t align = kPageSize);

    /** Allocate a NAPOT region (power-of-two size, naturally aligned). */
    std::optional<Addr> allocNapot(uint64_t size);

    /**
     * Allocate from the top of the free space (last fit). Used for
     * kernel-internal allocations (PT pages) so they do not perturb
     * the placement of data pages across experiment configurations.
     */
    std::optional<Addr> allocTop(unsigned npages);

    /** Return frames to the pool. */
    void free(Addr base, unsigned npages);

    /**
     * Scatter mode: single-page allocations take a random page of a
     * uniformly chosen free interval instead of first-fit,
     * fragmenting the physical layout. Each pick is O(log fragments).
     */
    void setScatter(bool on, uint64_t seed = 1);

    uint64_t freeBytes() const { return free_.totalBytes(); }
    size_t fragments() const { return free_.intervalCount(); }
    Addr base() const { return base_; }
    uint64_t size() const { return size_; }

  private:
    Addr base_;
    uint64_t size_;
    IntervalSet free_;
    bool scatter_ = false;
    Rng rng_;
};

} // namespace hpmp

#endif // HPMP_OS_PAGE_ALLOC_H
