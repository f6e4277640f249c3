/**
 * @file
 * TLB and PWC unit tests.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/pwc.h"
#include "core/tlb.h"

namespace hpmp
{
namespace
{

TEST(Tlb, MissThenL1Hit)
{
    Tlb tlb(4, 64);
    TlbHitLevel level;
    EXPECT_EQ(tlb.lookup(0x1000, &level), nullptr);
    EXPECT_EQ(level, TlbHitLevel::Miss);

    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    const TlbEntry *entry = tlb.lookup(0x1234, &level);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L1);
    EXPECT_EQ(entry->ppn, 0x80001000u >> kPageShift);
    EXPECT_EQ(entry->perm, Perm::rw());
    EXPECT_EQ(entry->physPerm, Perm::rwx());
    EXPECT_TRUE(entry->user);
}

TEST(Tlb, L2BackstopsL1Eviction)
{
    Tlb tlb(2, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(0x2000, 0x80002000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(0x3000, 0x80003000, Perm::rw(), Perm::rwx(), true);

    TlbHitLevel level;
    const TlbEntry *entry = tlb.lookup(0x1000, &level);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(level, TlbHitLevel::L2); // evicted from L1, caught by L2
    // Promotion: the next lookup hits L1.
    tlb.lookup(0x1000, &level);
    EXPECT_EQ(level, TlbHitLevel::L1);
}

TEST(Tlb, DirectMappedL2Conflicts)
{
    Tlb tlb(1, 16);
    // Two VPNs that collide in a 16-entry direct-mapped L2.
    tlb.fill(pageAddr(3), 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(pageAddr(3 + 16), 0x80002000, Perm::rw(), Perm::rwx(),
             true);
    tlb.fill(pageAddr(5), 0x80003000, Perm::rw(), Perm::rwx(), true);
    // First fill was evicted from both L1 (size 1) and its L2 slot.
    EXPECT_EQ(tlb.lookup(pageAddr(3)), nullptr);
    EXPECT_NE(tlb.lookup(pageAddr(3 + 16)), nullptr);
}

TEST(Tlb, FlushPageIsSelective)
{
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(0x2000, 0x80002000, Perm::rw(), Perm::rwx(), true);
    tlb.flushPage(0x1000);
    EXPECT_EQ(tlb.lookup(0x1000), nullptr);
    EXPECT_NE(tlb.lookup(0x2000), nullptr);
    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(0x2000), nullptr);
}

TEST(Tlb, FlushAllClearsEveryFilledSlot)
{
    // flushAll clears only the L2 slots filled since the previous
    // flush; every path that fills or rewrites a slot must be covered,
    // including a record that overflowed (more fills than L2 slots).
    Tlb tlb(4, 16);
    std::vector<Addr> filled;
    auto fill = [&](Addr va, Addr pa, unsigned level = 0) {
        tlb.fill(va, pa, Perm::rw(), Perm::rwx(), true, level);
        filled.push_back(va);
    };
    auto expectAllMiss = [&] {
        for (const Addr va : filled) {
            EXPECT_EQ(tlb.lookupL1(va), nullptr) << std::hex << va;
            EXPECT_EQ(tlb.lookupL2(va), nullptr) << std::hex << va;
        }
    };

    for (unsigned round = 0; round < 3; ++round) {
        filled.clear();
        fill(0x1000, 0x80001000);
        fill(0x2000, 0x80002000);
        tlb.flushPage(0x2000);
        fill(0x2000, 0x80009000);              // refill after flushPage
        fill(0x1000, 0x80007000);              // refill in place
        fill(pageAddr(1 + 16), 0x80003000);    // L2 conflict with 0x1000
        fill(0x40000000, 0x90000000, 1);       // superpage (L1 only)
        // Round 1 fills more pages than the L2 has slots.
        const unsigned extra = round == 1 ? 40 : 3;
        for (unsigned i = 0; i < extra; ++i)
            fill(pageAddr(0x100 + i), pageAddr(0x90100 + i));
        EXPECT_NE(tlb.lookup(filled.back()), nullptr);
        tlb.flushAll();
        expectAllMiss();
    }
}

TEST(Tlb, SuperpageEntryCoversWholeRange)
{
    Tlb tlb(4, 64);
    // 2 MiB leaf: one entry serves every 4 KiB page inside it.
    tlb.fill(0x40000000, 0x80000000, Perm::rw(), Perm::rwx(), true,
             /*level=*/1);
    const TlbEntry *a = tlb.lookup(0x40000000 + 0x1234);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->translate(0x40000000 + 0x1234), 0x80001234u);
    const TlbEntry *b = tlb.lookup(0x40000000 + 0x1ff000 + 0x10);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->translate(0x40000000 + 0x1ff010), 0x801ff010u);
    // Outside the superpage: miss.
    EXPECT_EQ(tlb.lookup(0x40200000), nullptr);
    // flushPage with any covered address drops the whole entry.
    tlb.flushPage(0x40001000);
    EXPECT_EQ(tlb.lookup(0x40000000), nullptr);
}

TEST(Tlb, GigapageEntryTranslatesAndFlushes)
{
    Tlb tlb(4, 64);
    // 1 GiB leaf at level 2.
    tlb.fill(0x80000000, 0x100000000, Perm::rwx(), Perm::rwx(), false,
             /*level=*/2);
    const TlbEntry *e = tlb.lookup(0x80000000 + 0x12345678);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->level, 2);
    EXPECT_FALSE(e->user);
    EXPECT_EQ(e->translate(0x80000000 + 0x12345678),
              0x100000000u + 0x12345678u);
    // 1 GiB entries never live in the 4 KiB-only L2: after flushPage
    // of any covered address nothing backstops the entry.
    tlb.flushPage(0x80000000 + 0x3f000000);
    EXPECT_EQ(tlb.lookup(0x80000000), nullptr);
}

TEST(Tlb, PromotionEvictsTrueLruVictim)
{
    Tlb tlb(2, 64);
    const Addr a = pageAddr(1), b = pageAddr(2), c = pageAddr(3);
    tlb.fill(a, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(b, 0x80002000, Perm::rw(), Perm::rwx(), true);
    tlb.fill(c, 0x80003000, Perm::rw(), Perm::rwx(), true);
    // L1 (2 entries) now holds {b, c}; a was evicted to the L2.

    TlbHitLevel level;
    tlb.lookup(b, &level);
    EXPECT_EQ(level, TlbHitLevel::L1); // b is now MRU, c is LRU

    // Promoting a from the L2 must evict the true-LRU entry c, not b.
    tlb.lookup(a, &level);
    EXPECT_EQ(level, TlbHitLevel::L2);
    tlb.lookup(b, &level);
    EXPECT_EQ(level, TlbHitLevel::L1);
    tlb.lookup(a, &level);
    EXPECT_EQ(level, TlbHitLevel::L1);
    tlb.lookup(c, &level);
    EXPECT_EQ(level, TlbHitLevel::L2); // only c fell back to the L2
}

TEST(Tlb, StatsCount)
{
    Tlb tlb(4, 64);
    tlb.lookup(0x1000);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    tlb.lookup(0x1000);
    EXPECT_EQ(tlb.misses(), 1u);
    EXPECT_EQ(tlb.l1Hits(), 1u);
}

/** Translate va through a fresh lookup, or 0 on a miss. */
Addr
lookupPa(Tlb &tlb, Addr va, TlbHitLevel *level = nullptr)
{
    const TlbEntry *e = tlb.lookup(va, level);
    return e ? e->translate(va) : 0;
}

TEST(Tlb, FourKFillReplacesCoveringSuperpage)
{
    Tlb tlb(4, 64);
    tlb.fill(0x40000000, 0x80000000, Perm::rw(), Perm::rwx(), true,
             /*level=*/1);
    EXPECT_EQ(lookupPa(tlb, 0x40001234), 0x80001234u);
    // The 4 KiB refill drops the covering superpage.
    tlb.fill(0x40001000, 0x90001000, Perm::ro(), Perm::rwx(), true);
    TlbHitLevel level;
    EXPECT_EQ(lookupPa(tlb, 0x40001234, &level), 0x90001234u);
    EXPECT_EQ(level, TlbHitLevel::L1);
    EXPECT_EQ(tlb.lookup(0x40001234)->perm, Perm::ro());
    EXPECT_EQ(lookupPa(tlb, 0x40005000), 0u); // rest of the 2 MiB gone
}

TEST(Tlb, RefillInPlace)
{
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    EXPECT_EQ(lookupPa(tlb, 0x1010), 0x80001010u);
    tlb.fill(0x1000, 0x80007000, Perm::ro(), Perm::ro(), false);
    const TlbEntry *e = tlb.lookup(0x1010);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->translate(0x1010), 0x80007010u);
    EXPECT_EQ(e->perm, Perm::ro());
    EXPECT_EQ(e->physPerm, Perm::ro());
    EXPECT_FALSE(e->user);
}

TEST(Tlb, SmallerPageWinsOverSuperpage)
{
    // A superpage filled over a still-cached 4 KiB entry (the mapping
    // changed without an sfence) leaves both in the L1; the lookup
    // picks the 4 KiB entry for its page and the superpage elsewhere.
    Tlb tlb(4, 64);
    tlb.fill(0x40001000, 0x90001000, Perm::ro(), Perm::rwx(), true);
    tlb.fill(0x40002000, 0x80000000, Perm::rw(), Perm::rwx(), true,
             /*level=*/1);
    EXPECT_EQ(lookupPa(tlb, 0x40002010), 0x80002010u);
    EXPECT_EQ(lookupPa(tlb, 0x40001010), 0x90001010u);
    EXPECT_EQ(lookupPa(tlb, 0x40002010), 0x80002010u);
    EXPECT_EQ(lookupPa(tlb, 0x40001010), 0x90001010u);
}

TEST(Tlb, SplitLookupCountsEachAccessOnce)
{
    Tlb tlb(4, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    for (int i = 0; i < 5; ++i)
        EXPECT_NE(tlb.lookupL1(0x1000 + 8 * i), nullptr);
    EXPECT_EQ(tlb.lookupL1(0x2000), nullptr);
    EXPECT_EQ(tlb.lookupL2(0x2000), nullptr);
    EXPECT_EQ(tlb.l1Hits(), 5u);
    EXPECT_EQ(tlb.l2Hits(), 0u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, ZeroEntryL1NeverCaches)
{
    Tlb tlb(0, 64);
    tlb.fill(0x1000, 0x80001000, Perm::rw(), Perm::rwx(), true);
    TlbHitLevel level = TlbHitLevel::Miss;
    ASSERT_NE(tlb.lookup(0x1000, &level), nullptr);
    EXPECT_EQ(level, TlbHitLevel::L2);
    EXPECT_EQ(tlb.l1Hits(), 0u);
}

TEST(TlbDeathTest, ZeroEntryL2IsRejected)
{
    // The direct-mapped L2 would index `vpn % 0` on the first lookup.
    EXPECT_DEATH(
        {
            Tlb tlb(4, 0);
            tlb.lookup(0x1000);
        },
        "L2 TLB needs at least one entry");
}

TEST(TlbDeathTest, NonPowerOfTwoL2IsRejected)
{
    // The direct-mapped L2 indexes by mask.
    EXPECT_DEATH({ Tlb tlb(4, 48); },
                 "L2 TLB entries \\(48\\) must be a power of two");
}

TEST(Pwc, FillLookupByLevel)
{
    Pwc pwc(8);
    const Pte pte = Pte::pointer(0x123000);
    pwc.fill(1, 0x40000000, pte);
    auto hit = pwc.lookup(1, 0x40000000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->raw, pte.raw);
    // Same address, different level: miss.
    EXPECT_FALSE(pwc.lookup(2, 0x40000000).has_value());
    // Different 2 MiB region at level 0... level 0 tags 4 KiB regions.
    EXPECT_FALSE(pwc.lookup(1, 0x40200000).has_value());
    // Within the same level-1 region (2 MiB): hit.
    EXPECT_TRUE(pwc.lookup(1, 0x40001000).has_value());
}

TEST(Pwc, LruEviction)
{
    Pwc pwc(2);
    pwc.fill(0, 0x1000, Pte::pointer(0x1000));
    pwc.fill(0, 0x2000, Pte::pointer(0x2000));
    pwc.lookup(0, 0x1000); // touch
    pwc.fill(0, 0x3000, Pte::pointer(0x3000));
    EXPECT_TRUE(pwc.lookup(0, 0x1000).has_value());
    EXPECT_FALSE(pwc.lookup(0, 0x2000).has_value());
}

TEST(Pwc, DisabledNeverCaches)
{
    Pwc pwc(0);
    EXPECT_FALSE(pwc.enabled());
    pwc.fill(0, 0x1000, Pte::pointer(0x1000));
    EXPECT_FALSE(pwc.lookup(0, 0x1000).has_value());
}

TEST(Pwc, InvalidateAndFlush)
{
    Pwc pwc(8);
    pwc.fill(0, 0x1000, Pte::pointer(0x1000));
    pwc.fill(1, 0x1000, Pte::pointer(0x2000));
    pwc.invalidate(0, 0x1000);
    EXPECT_FALSE(pwc.lookup(0, 0x1000).has_value());
    EXPECT_TRUE(pwc.lookup(1, 0x1000).has_value());
    pwc.flush();
    EXPECT_FALSE(pwc.lookup(1, 0x1000).has_value());
}

} // namespace
} // namespace hpmp
