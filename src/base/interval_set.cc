#include "base/interval_set.h"

#include "base/bitfield.h"
#include "base/logging.h"

namespace hpmp
{

bool
IntervalSet::insert(Addr base, uint64_t size)
{
    if (size == 0)
        return true;
    const Addr end = base + size;

    // One search: the successor, and before it the predecessor.
    const Tree::iterator next = intervals_.lower_bound(base);
    if (next != intervals_.end() && next->first < end)
        return false;
    const bool join_next = next != intervals_.end() && next->first == end;
    if (next != intervals_.begin()) {
        const Tree::iterator prev = std::prev(next);
        const Addr prev_end = prev->first + prev->second;
        if (prev_end > base)
            return false;
        if (prev_end == base) {
            // Grow the predecessor in place: its key stays, so the
            // tree neither rebalances nor recounts.
            prev->second += size + (join_next ? next->second : 0);
            if (join_next)
                intervals_.erase(next);
            return true;
        }
    }
    uint64_t new_size = size;
    if (join_next) {
        new_size += next->second;
        intervals_.erase(next);
    }
    intervals_.insert({base, new_size});
    return true;
}

bool
IntervalSet::erase(Addr base, uint64_t size)
{
    if (size == 0)
        return true;
    Tree::iterator it = intervals_.upper_bound(base);
    if (it == intervals_.begin())
        return false;
    --it;
    if (base + size > it->first + it->second)
        return false;
    cut(it, base, size);
    return true;
}

void
IntervalSet::cut(Tree::iterator it, Addr base, uint64_t size)
{
    const Addr end = base + size;
    const Addr ival_end = it->first + it->second;
    panic_if(base < it->first || end > ival_end,
             "cut [%#lx, %#lx) outside [%#lx, %#lx)", base, end, it->first,
             ival_end);
    // A left remainder keeps its node with the size changed in place
    // (same key: no rebalancing, order statistics stay valid).
    if (it->first < base)
        it->second = base - it->first;
    else
        intervals_.erase(it);
    if (end < ival_end)
        intervals_.insert({end, ival_end - end});
}

IntervalSet::Tree::iterator
IntervalSet::nthNode(size_t k)
{
    panic_if(k >= intervals_.size(), "nth(%zu) of %zu intervals", k,
             intervals_.size());
    return intervals_.find_by_order(k);
}

bool
IntervalSet::contains(Addr base, uint64_t size) const
{
    auto it = intervals_.upper_bound(base);
    if (it == intervals_.begin())
        return false;
    --it;
    return it->first <= base && base + size <= it->first + it->second;
}

bool
IntervalSet::overlaps(Addr base, uint64_t size) const
{
    if (size == 0)
        return false;
    auto it = intervals_.lower_bound(base);
    if (it != intervals_.end() && it->first < base + size)
        return true;
    if (it != intervals_.begin()) {
        --it;
        if (it->first + it->second > base)
            return true;
    }
    return false;
}

std::optional<Addr>
IntervalSet::findFit(uint64_t size, uint64_t align) const
{
    for (const auto &[base, len] : intervals_) {
        const Addr aligned = alignUp(base, align);
        if (aligned < base + len && base + len - aligned >= size)
            return aligned;
    }
    return std::nullopt;
}

std::optional<Addr>
IntervalSet::findLastFit(uint64_t size) const
{
    for (auto it = intervals_.end(); it != intervals_.begin();) {
        --it;
        if (it->second >= size)
            return it->first + it->second - size;
    }
    return std::nullopt;
}

std::pair<Addr, uint64_t>
IntervalSet::nth(size_t k) const
{
    panic_if(k >= intervals_.size(), "nth(%zu) of %zu intervals", k,
             intervals_.size());
    const auto it = intervals_.find_by_order(k);
    return {it->first, it->second};
}

uint64_t
IntervalSet::totalBytes() const
{
    uint64_t total = 0;
    for (const auto &[base, len] : intervals_)
        total += len;
    return total;
}

} // namespace hpmp
