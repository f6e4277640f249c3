/**
 * @file
 * O(1) key -> slot index with true-LRU replacement.
 *
 * The fully-associative caches on the simulator's per-access hot path
 * (L1 TLB, PWC, PMPTW-Cache) were linear scans over every entry. This
 * helper keeps their fully-associative *capacity* semantics — any key
 * can live in any of the `capacity` slots, the victim is always the
 * true-LRU entry — but indexes the keys in a small chained hash table
 * so lookup, fill, touch and eviction are all O(1).
 *
 * The index owns only keys and recency; payloads live in a caller-side
 * vector addressed by the slot numbers this class hands out. Keys are
 * 128-bit (two uint64_t halves) so compound keys like
 * (table root, granule) need no lossy packing.
 */

#ifndef HPMP_BASE_INDEXED_LRU_H
#define HPMP_BASE_INDEXED_LRU_H

#include <cstdint>
#include <vector>

namespace hpmp
{

/** Hash index over `capacity` slots with an intrusive true-LRU list. */
class LruIndex
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** @param capacity 0 yields an always-empty index (cache off). */
    explicit LruIndex(unsigned capacity)
        : capacity_(capacity)
    {
        bucketMask_ = 0;
        if (capacity_ > 0) {
            unsigned buckets = 4;
            while (buckets < capacity_ * 2)
                buckets <<= 1;
            bucketMask_ = buckets - 1;
            buckets_.assign(buckets, kNone);
            slots_.resize(capacity_);
            clear();
        }
    }

    unsigned capacity() const { return capacity_; }
    unsigned size() const { return size_; }

    /** Slot holding (k1, k2), or kNone. Does not touch recency. */
    uint32_t
    find(uint64_t k1, uint64_t k2 = 0) const
    {
        if (capacity_ == 0)
            return kNone;
        for (uint32_t s = buckets_[bucketOf(k1, k2)]; s != kNone;
             s = slots_[s].chain) {
            if (slots_[s].k1 == k1 && slots_[s].k2 == k2)
                return s;
        }
        return kNone;
    }

    /** Mark slot most-recently used (a no-op when it already is). */
    void
    touch(uint32_t slot)
    {
        if (slot == lruHead_)
            return;
        lruUnlink(slot);
        lruPushMru(slot);
    }

    /**
     * Claim a slot for a new key: a free slot if any, otherwise the
     * true-LRU slot (its old key is evicted from the index). The
     * caller overwrites the payload at the returned slot.
     */
    uint32_t
    insert(uint64_t k1, uint64_t k2 = 0)
    {
        uint32_t slot;
        if (freeHead_ != kNone) {
            slot = freeHead_;
            freeHead_ = slots_[slot].chain;
        } else {
            slot = lruTail_;
            bucketUnlink(slot);
            lruUnlink(slot);
            --size_;
        }
        slots_[slot].k1 = k1;
        slots_[slot].k2 = k2;
        bucketLink(slot);
        lruPushMru(slot);
        ++size_;
        return slot;
    }

    /** Remove slot from the index; the slot becomes free. */
    void
    erase(uint32_t slot)
    {
        bucketUnlink(slot);
        lruUnlink(slot);
        slots_[slot].chain = freeHead_;
        freeHead_ = slot;
        --size_;
    }

    /** Drop every entry. */
    void
    clear()
    {
        if (capacity_ == 0)
            return;
        for (auto &head : buckets_)
            head = kNone;
        freeHead_ = kNone;
        for (unsigned s = capacity_; s-- > 0;) {
            slots_[s].chain = freeHead_;
            freeHead_ = s;
        }
        lruHead_ = lruTail_ = kNone;
        size_ = 0;
    }

  private:
    struct Slot
    {
        uint64_t k1 = 0;
        uint64_t k2 = 0;
        uint32_t chain = kNone;   //!< next in bucket chain / free list
        uint32_t bucket = 0;      //!< home bucket, saves a rehash on unlink
        uint32_t lruPrev = kNone;
        uint32_t lruNext = kNone;
    };

    uint32_t
    bucketOf(uint64_t k1, uint64_t k2) const
    {
        uint64_t h = k1 * 0x9E3779B97F4A7C15ULL;
        h ^= k2 + 0x9E3779B97F4A7C15ULL + (h >> 27);
        h ^= h >> 33;
        h *= 0xFF51AFD7ED558CCDULL;
        h ^= h >> 33;
        return uint32_t(h) & bucketMask_;
    }

    void
    bucketLink(uint32_t slot)
    {
        const uint32_t b = bucketOf(slots_[slot].k1, slots_[slot].k2);
        slots_[slot].bucket = b;
        slots_[slot].chain = buckets_[b];
        buckets_[b] = slot;
    }

    void
    bucketUnlink(uint32_t slot)
    {
        uint32_t *link = &buckets_[slots_[slot].bucket];
        while (*link != slot)
            link = &slots_[*link].chain;
        *link = slots_[slot].chain;
    }

    void
    lruPushMru(uint32_t slot)
    {
        slots_[slot].lruPrev = kNone;
        slots_[slot].lruNext = lruHead_;
        if (lruHead_ != kNone)
            slots_[lruHead_].lruPrev = slot;
        lruHead_ = slot;
        if (lruTail_ == kNone)
            lruTail_ = slot;
    }

    void
    lruUnlink(uint32_t slot)
    {
        const uint32_t prev = slots_[slot].lruPrev;
        const uint32_t next = slots_[slot].lruNext;
        if (prev != kNone)
            slots_[prev].lruNext = next;
        else
            lruHead_ = next;
        if (next != kNone)
            slots_[next].lruPrev = prev;
        else
            lruTail_ = prev;
    }

    unsigned capacity_;
    uint32_t bucketMask_;
    std::vector<uint32_t> buckets_;
    std::vector<Slot> slots_;
    uint32_t freeHead_ = kNone;
    uint32_t lruHead_ = kNone;
    uint32_t lruTail_ = kNone;
    unsigned size_ = 0;
};

} // namespace hpmp

#endif // HPMP_BASE_INDEXED_LRU_H
