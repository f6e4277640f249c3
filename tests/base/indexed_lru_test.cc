/**
 * @file
 * Differential test of LruIndex against a naive true-LRU reference.
 *
 * The reference keeps the keys in a list ordered by recency plus a map
 * from key to list position, and hands out slots the way the index
 * promises to: from a free stack while one is left, else the slot of
 * the least recently used key. Random find / insert / touch / erase /
 * clear sequences over a key pool built to collide (equal k1 with
 * different k2, k1 values differing only in their high bits, and
 * L1-TLB-style (vpn << 3 | level) keys) must agree on every returned
 * slot, on size() and on the membership of the whole pool after every
 * step. No answer may depend on the bucket hash.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "base/indexed_lru.h"
#include "base/rng.h"

namespace hpmp
{
namespace
{

using Key = std::pair<uint64_t, uint64_t>;

/** True LRU over `capacity` slots, front of the list = most recent. */
class RefLru
{
  public:
    explicit RefLru(unsigned capacity) : capacity_(capacity) { clear(); }

    uint32_t
    find(const Key &key) const
    {
        const auto it = byKey_.find(key);
        return it == byKey_.end() ? LruIndex::kNone : it->second->second;
    }

    void
    touch(uint32_t slot)
    {
        recency_.splice(recency_.begin(), recency_, bySlot_.at(slot));
    }

    uint32_t
    insert(const Key &key)
    {
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            slot = recency_.back().second;
            byKey_.erase(recency_.back().first);
            recency_.pop_back();
        }
        recency_.emplace_front(key, slot);
        byKey_[key] = recency_.begin();
        bySlot_[slot] = recency_.begin();
        return slot;
    }

    void
    erase(uint32_t slot)
    {
        const auto it = bySlot_.at(slot);
        byKey_.erase(it->first);
        bySlot_.erase(slot);
        recency_.erase(it);
        free_.push_back(slot);
    }

    void
    clear()
    {
        recency_.clear();
        byKey_.clear();
        bySlot_.clear();
        free_.clear();
        for (unsigned s = capacity_; s-- > 0;)
            free_.push_back(s); // slot 0 is handed out first
    }

    unsigned size() const { return unsigned(recency_.size()); }

    /** Slot of a uniformly chosen resident key (size() > 0). */
    uint32_t
    randomSlot(Rng &rng) const
    {
        auto it = recency_.begin();
        std::advance(it, rng.below(recency_.size()));
        return it->second;
    }

  private:
    using Entry = std::pair<Key, uint32_t>;
    unsigned capacity_;
    std::list<Entry> recency_;
    std::map<Key, std::list<Entry>::iterator> byKey_;
    std::map<uint32_t, std::list<Entry>::iterator> bySlot_;
    std::vector<uint32_t> free_;
};

/** Keys chosen to share buckets under weak hashes. */
std::vector<Key>
collidingPool()
{
    std::vector<Key> pool;
    for (uint64_t k2 = 0; k2 < 8; ++k2)
        pool.emplace_back(0x1000, k2);              // equal k1
    for (unsigned bit = 40; bit < 64; bit += 3)
        pool.emplace_back(0x5ULL | 1ULL << bit, 0); // high bits only
    pool.emplace_back(0x5, 0);
    for (uint64_t vpn = 0; vpn < 24; ++vpn) {
        for (uint64_t level = 0; level < 3; ++level)
            pool.emplace_back(vpn << 3 | level, 0);  // L1-TLB keys
    }
    for (uint64_t root = 1; root <= 4; ++root) {
        for (uint64_t granule = 0; granule < 4; ++granule)
            pool.emplace_back(root << 30, granule << 20); // PMPTW keys
    }
    return pool;
}

void
expectSameContents(const LruIndex &index, const RefLru &ref,
                   const std::vector<Key> &pool, uint64_t step)
{
    ASSERT_EQ(index.size(), ref.size()) << "step " << step;
    for (const Key &key : pool) {
        ASSERT_EQ(index.find(key.first, key.second), ref.find(key))
            << "step " << step << " key " << key.first << "/" << key.second;
    }
}

class LruIndexDiff : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LruIndexDiff, MatchesTrueLruReference)
{
    const unsigned capacity = GetParam();
    const std::vector<Key> pool = collidingPool();
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed);
        LruIndex index(capacity);
        RefLru ref(capacity);
        ASSERT_EQ(index.capacity(), capacity);
        for (uint64_t step = 0; step < 20000; ++step) {
            const Key &key = pool[rng.below(pool.size())];
            const uint64_t op = rng.below(100);
            if (op < 40 || capacity == 0) {
                // find, and on a hit touch: the lookup a cache makes
                const uint32_t slot = index.find(key.first, key.second);
                ASSERT_EQ(slot, ref.find(key)) << "step " << step;
                if (slot != LruIndex::kNone && rng.below(2)) {
                    index.touch(slot);
                    ref.touch(slot);
                }
                if (capacity == 0 && op >= 99) {
                    index.clear();
                    ref.clear();
                }
            } else if (op < 75) {
                // fill: callers insert only keys that missed
                if (index.find(key.first, key.second) == LruIndex::kNone) {
                    ASSERT_EQ(index.insert(key.first, key.second),
                              ref.insert(key))
                        << "step " << step;
                }
            } else if (op < 90) {
                if (ref.size() > 0) {
                    const uint32_t slot = ref.randomSlot(rng);
                    index.touch(slot);
                    ref.touch(slot);
                }
            } else if (op < 99) {
                if (ref.size() > 0) {
                    const uint32_t slot = ref.randomSlot(rng);
                    index.erase(slot);
                    ref.erase(slot);
                }
            } else {
                index.clear();
                ref.clear();
            }
            expectSameContents(index, ref, pool, step);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruIndexDiff,
                         ::testing::Values(0u, 1u, 8u, 32u));

TEST(LruIndex, EveryCollidingKeyIsFoundWhileResident)
{
    const std::vector<Key> pool = collidingPool();
    LruIndex index(unsigned(pool.size()));
    for (const Key &key : pool)
        index.insert(key.first, key.second);
    ASSERT_EQ(index.size(), pool.size());
    std::vector<bool> seen(pool.size(), false);
    for (const Key &key : pool) {
        const uint32_t slot = index.find(key.first, key.second);
        ASSERT_NE(slot, LruIndex::kNone);
        ASSERT_FALSE(seen[slot]) << "two keys share slot " << slot;
        seen[slot] = true;
    }
    EXPECT_EQ(index.find(0x1000, 8), LruIndex::kNone);
    EXPECT_EQ(index.find(0x5ULL | 1ULL << 41, 0), LruIndex::kNone);
}

} // namespace
} // namespace hpmp
