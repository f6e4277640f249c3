/**
 * @file
 * Cache model tests: hit/miss behaviour, LRU replacement, conflict
 * behaviour by set, warm-up and flush semantics.
 */

#include <gtest/gtest.h>

#include "mem/cache.h"

namespace hpmp
{
namespace
{

CacheParams
smallCache(unsigned assoc)
{
    return {"test", 8 * 64 * assoc, assoc, 64, 2};
}

TEST(Cache, MissThenHit)
{
    Cache c(smallCache(2));
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(smallCache(2)); // 8 sets, 2 ways
    // Three lines mapping to the same set (stride = sets * line).
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a);
    c.access(b);
    c.access(a);        // a most recent
    c.access(d);        // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, TouchWarmsWithoutCountingMiss)
{
    Cache c(smallCache(4));
    c.touch(0x5000);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.access(0x5000));
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, FlushAllAndLine)
{
    Cache c(smallCache(4));
    c.touch(0x1000);
    c.touch(0x2000);
    c.flushLine(0x1000);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_TRUE(c.probe(0x2000));
    c.flushAll();
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(Cache, DistinctTagsSameIndex)
{
    Cache c(smallCache(1)); // direct mapped, 8 sets
    c.access(0x0);
    EXPECT_FALSE(c.access(8 * 64)); // same set, different tag
    EXPECT_FALSE(c.access(0x0));    // evicted
}

TEST(CacheDeathTest, SmallerThanOneSetIsRejected)
{
    // 32 bytes hold no 64-byte line, so there would be 0 sets and the
    // first access would take `% 0`.
    EXPECT_DEATH(
        {
            Cache c({"tiny", 32, 2, 64, 1});
            c.access(0x1000);
        },
        "tiny: 32 bytes hold no set of 2 64-byte lines");
    EXPECT_DEATH({ Cache c({"empty", 0, 4, 64, 1}); }, "hold no set");
}

/** Associativity sweep: a working set within assoc lines never misses
 * after warm-up. */
class CacheAssoc : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheAssoc, WorkingSetWithinWaysStays)
{
    const unsigned assoc = GetParam();
    Cache c(smallCache(assoc));
    const unsigned sets = 8;
    for (unsigned w = 0; w < assoc; ++w)
        c.access(Addr(w) * sets * 64);
    c.resetStats();
    for (int round = 0; round < 4; ++round) {
        for (unsigned w = 0; w < assoc; ++w)
            c.access(Addr(w) * sets * 64);
    }
    EXPECT_EQ(c.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheAssoc,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace hpmp
