/**
 * @file
 * Cache-line locking tests (Penglai's pinned monitor state, paper
 * Fig. 7): locked lines survive replacement pressure and flushes,
 * and a set must keep at least one evictable way.
 */

#include <gtest/gtest.h>

#include "mem/cache.h"

namespace hpmp
{
namespace
{

CacheParams
tiny(unsigned assoc)
{
    return {"lock", 4 * 64 * assoc, assoc, 64, 1};
}

TEST(CacheLock, LockedLineSurvivesPressure)
{
    Cache c(tiny(2)); // 4 sets, 2 ways
    ASSERT_TRUE(c.lockLine(0x0));
    // Thrash the same set with many conflicting lines.
    for (int i = 1; i < 20; ++i)
        c.access(Addr(i) * 4 * 64);
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_EQ(c.lockedLines(), 1u);
}

TEST(CacheLock, LockedLineSurvivesFlushAll)
{
    Cache c(tiny(4));
    ASSERT_TRUE(c.lockLine(0x40));
    c.touch(0x80);
    c.flushAll();
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_FALSE(c.probe(0x80));
    c.flushLine(0x40); // locked: flushLine is a no-op too
    EXPECT_TRUE(c.probe(0x40));
}

TEST(CacheLock, OneWayMustStayEvictable)
{
    Cache c(tiny(2));
    EXPECT_TRUE(c.lockLine(0x0));
    // Second lock in the same set would leave no victim: refused.
    EXPECT_FALSE(c.lockLine(4 * 64));
    // A different set still accepts a lock.
    EXPECT_TRUE(c.lockLine(0x40));
}

TEST(CacheLock, UnlockRestoresEvictability)
{
    Cache c(tiny(1)); // direct-mapped: locking would wedge the set
    EXPECT_FALSE(c.lockLine(0x0));

    Cache c2(tiny(2));
    ASSERT_TRUE(c2.lockLine(0x0));
    c2.unlockLine(0x0);
    EXPECT_EQ(c2.lockedLines(), 0u);
    // Now it can be evicted by pressure.
    for (int i = 1; i < 8; ++i)
        c2.access(Addr(i) * 4 * 64);
    EXPECT_FALSE(c2.probe(0x0));
}

TEST(CacheLock, MissesStillServedAroundLockedWays)
{
    Cache c(tiny(2));
    ASSERT_TRUE(c.lockLine(0x0));
    // Conflicting lines keep replacing the single unlocked way.
    EXPECT_FALSE(c.access(4 * 64));
    EXPECT_TRUE(c.access(4 * 64));
    EXPECT_FALSE(c.access(8 * 64));
    EXPECT_TRUE(c.access(8 * 64));
    EXPECT_FALSE(c.probe(4 * 64)); // evicted by the 0x200 fill
    EXPECT_TRUE(c.probe(0x0));
}

} // namespace
} // namespace hpmp
