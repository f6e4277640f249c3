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
 * An update searches the tree once: a remainder or a grown neighbour
 * that keeps its base keeps its node, resized in place.
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

    /**
     * Remove `size` bytes from the k-th interval in address order, at
     * the offset `pick(interval_size)` returns, with one tree search:
     * erase(nth(k).first + offset, size) without the second lookup.
     * Requires k < intervalCount() and the range inside the interval.
     * @return the base of the removed range.
     */
    template <typename Pick>
    Addr
    eraseInNth(size_t k, uint64_t size, Pick &&pick)
    {
        const Tree::iterator it = nthNode(k);
        const Addr base = it->first + pick(it->second);
        cut(it, base, size);
        return base;
    }

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

    /** The k-th interval's node; panics unless k < intervalCount(). */
    Tree::iterator nthNode(size_t k);

    /**
     * Remove [base, base+size), which must lie inside the interval at
     * `it`, with at most one tree insert and no search.
     */
    void cut(Tree::iterator it, Addr base, uint64_t size);

    Tree intervals_;
};

} // namespace hpmp

#endif // HPMP_BASE_INTERVAL_SET_H
