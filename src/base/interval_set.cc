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
    if (overlaps(base, size))
        return false;

    Addr new_base = base;
    uint64_t new_size = size;

    // Coalesce with the predecessor if it ends exactly at base.
    auto it = intervals_.lower_bound(base);
    if (it != intervals_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == base) {
            new_base = prev->first;
            new_size += prev->second;
            intervals_.erase(prev);
        }
    }
    // Coalesce with the successor if it begins exactly at the end.
    it = intervals_.lower_bound(new_base + new_size);
    if (it != intervals_.end() && it->first == new_base + new_size) {
        new_size += it->second;
        intervals_.erase(it);
    }
    intervals_[new_base] = new_size;
    return true;
}

bool
IntervalSet::erase(Addr base, uint64_t size)
{
    if (size == 0)
        return true;
    if (!contains(base, size))
        return false;

    auto it = intervals_.upper_bound(base);
    panic_if(it == intervals_.begin(), "contains() lied about coverage");
    --it;
    const Addr ival_base = it->first;
    const uint64_t ival_size = it->second;
    intervals_.erase(it);

    if (ival_base < base)
        intervals_[ival_base] = base - ival_base;
    const Addr end = base + size;
    const Addr ival_end = ival_base + ival_size;
    if (end < ival_end)
        intervals_[end] = ival_end - end;
    return true;
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
