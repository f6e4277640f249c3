/**
 * @file
 * Set of disjoint half-open address intervals [base, base+size).
 *
 * Used by the physical page allocator (free lists, fragmentation
 * accounting) and by the secure monitor to validate that GMS regions
 * do not overlap.
 */

#ifndef HPMP_BASE_INTERVAL_SET_H
#define HPMP_BASE_INTERVAL_SET_H

#include <cstdint>
#include <ext/pb_ds/assoc_container.hpp>
#include <ext/pb_ds/tree_policy.hpp>
#include <functional>
#include <optional>
#include <utility>

#include "base/addr.h"

namespace hpmp
{

/**
 * Disjoint interval set with coalescing insert and splitting erase.
 * Intervals live in an order-statistic red-black tree, so point
 * queries, updates and nth() are all O(log n) in the interval count.
 */
class IntervalSet
{
  public:
    /**
     * Insert [base, base+size), coalescing with neighbours.
     * @return false if the range overlaps an existing interval.
     */
    bool insert(Addr base, uint64_t size);

    /**
     * Remove [base, base+size). The range must be fully contained in
     * one existing interval (it may split it).
     * @return false if the range is not fully covered.
     */
    bool erase(Addr base, uint64_t size);

    /** True iff [base, base+size) is fully contained in one interval. */
    bool contains(Addr base, uint64_t size) const;

    /** True iff [base, base+size) overlaps any interval. */
    bool overlaps(Addr base, uint64_t size) const;

    /**
     * Find the lowest interval of at least `size` bytes whose base is
     * aligned to `align` (after rounding the base up).
     * @return the aligned base address, or nullopt.
     */
    std::optional<Addr> findFit(uint64_t size, uint64_t align = 1) const;

    /**
     * Find the highest interval of at least `size` bytes (last fit).
     * @return the base of its top `size` bytes, or nullopt.
     */
    std::optional<Addr> findLastFit(uint64_t size) const;

    /**
     * The k-th interval in address order as (base, size), in
     * O(log n). Requires k < intervalCount().
     */
    std::pair<Addr, uint64_t> nth(size_t k) const;

    /** Number of disjoint intervals (fragmentation proxy). */
    size_t intervalCount() const { return intervals_.size(); }

    /** Total bytes covered. */
    uint64_t totalBytes() const;

  private:
    /** base -> size; each node also counts its subtree for nth(). */
    using Tree = __gnu_pbds::tree<
        Addr, uint64_t, std::less<Addr>, __gnu_pbds::rb_tree_tag,
        __gnu_pbds::tree_order_statistics_node_update>;

    Tree intervals_;
};

} // namespace hpmp

#endif // HPMP_BASE_INTERVAL_SET_H
