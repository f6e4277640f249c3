/**
 * @file
 * HPMP unit tests: T-bit mode switching, entry pairing, priority
 * between segment and table entries (cache-based management), the
 * last-entry rule and PMPTW-Cache integration.
 */

#include <gtest/gtest.h>

#include "base/frame_alloc.h"
#include "hpmp/hpmp_unit.h"

namespace hpmp
{
namespace
{

class HpmpUnitTest : public ::testing::Test
{
  protected:
    HpmpUnitTest()
        : mem(16_GiB),
          unit(mem, 16, 0),
          table(mem, bumpAllocator(64_MiB), 2)
    {
    }

    PhysMem mem;
    HpmpUnit unit;
    PmpTable table;
};

TEST_F(HpmpUnitTest, SegmentModeInlinePermission)
{
    unit.programSegment(0, 1_GiB, 1_GiB, Perm::rw());
    auto res = unit.check(1_GiB + 123, 8, AccessType::Load,
                          PrivMode::User);
    EXPECT_TRUE(res.ok());
    EXPECT_FALSE(res.viaTable);
    EXPECT_TRUE(res.pmptRefs.empty());

    res = unit.check(1_GiB, 8, AccessType::Fetch, PrivMode::User);
    EXPECT_EQ(res.fault, Fault::FetchAccessFault);
}

TEST_F(HpmpUnitTest, TableModeFetchesFromMemory)
{
    table.setPerm(2_GiB, 64_KiB, Perm::rw());
    unit.programTable(0, 0, 16_GiB, table.rootPa());

    auto res = unit.check(2_GiB, 8, AccessType::Load, PrivMode::User);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.viaTable);
    EXPECT_EQ(res.pmptRefs.size(), 2u);

    res = unit.check(2_GiB + 64_KiB, 8, AccessType::Load,
                     PrivMode::User);
    EXPECT_EQ(res.fault, Fault::LoadAccessFault);
}

TEST_F(HpmpUnitTest, TableModeIgnoresInlinePermBits)
{
    // Even though the config register's permission field would deny,
    // table mode takes the permission from the table.
    table.setPerm(2_GiB, 64_KiB, Perm::rw());
    unit.programTable(0, 0, 16_GiB, table.rootPa());
    // programTable writes Perm::none() into the config; loads must
    // still succeed through the table.
    EXPECT_TRUE(unit.check(2_GiB, 8, AccessType::Load,
                           PrivMode::User).ok());
}

TEST_F(HpmpUnitTest, SegmentCachesTableByPriority)
{
    // Penglai-HPMP's cache-based management: the low-numbered segment
    // overrides the table for the region it covers.
    table.setPerm(1_GiB, 16_MiB, Perm::ro());
    unit.programSegment(0, 1_GiB, 16_MiB, Perm::rw());
    unit.programTable(1, 0, 16_GiB, table.rootPa());

    // Covered by the segment: write allowed, no table refs.
    auto res = unit.check(1_GiB, 8, AccessType::Store, PrivMode::User);
    EXPECT_TRUE(res.ok());
    EXPECT_FALSE(res.viaTable);

    // Outside the segment: table decides.
    table.setPerm(4_GiB, 64_KiB, Perm::rw());
    res = unit.check(4_GiB, 8, AccessType::Store, PrivMode::User);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.viaTable);
}

TEST_F(HpmpUnitTest, PairedEntryConfigIsOff)
{
    unit.programTable(3, 0, 16_GiB, table.rootPa());
    EXPECT_EQ(unit.regs().cfg(4).a(), PmpAddrMode::Off);
    const PmptBaseReg base{unit.regs().addr(4)};
    EXPECT_EQ(base.tablePa(), table.rootPa());
    EXPECT_EQ(base.levels(), 2u);
}

TEST_F(HpmpUnitTest, LastEntryCannotBeTableMode)
{
    EXPECT_DEATH(unit.programTable(15, 0, 16_GiB, table.rootPa()),
                 "last HPMP entry");
}

TEST_F(HpmpUnitTest, TBitOnLastEntryReadsAsSegment)
{
    // WARL legalization: set T on the last entry manually; the checker
    // must treat it as segment mode.
    unit.regs().setAddr(15, PmpUnit::encodeNapot(1_GiB, 1_GiB));
    unit.regs().setCfg(15, PmpCfg::make(Perm::rw(), PmpAddrMode::Napot,
                                        false, /*t=*/true));
    auto res = unit.check(1_GiB, 8, AccessType::Load, PrivMode::User);
    EXPECT_TRUE(res.ok());
    EXPECT_FALSE(res.viaTable);
}

TEST_F(HpmpUnitTest, ReprogramFlushesPmptwCache)
{
    // Regression: programSegment/programTable used to leave the
    // PMPTW-Cache intact, so a permission revoked in the table kept
    // hitting the stale cached leaf.
    HpmpUnit cached(mem, 16, /*pmptw_entries=*/16);
    table.setPerm(2_GiB, 64_KiB, Perm::rw());
    cached.programTable(0, 0, 16_GiB, table.rootPa());

    ASSERT_TRUE(cached.check(2_GiB, 8, AccessType::Load,
                             PrivMode::User).ok());
    auto res = cached.check(2_GiB, 8, AccessType::Load, PrivMode::User);
    ASSERT_TRUE(res.ok());
    EXPECT_TRUE(res.viaCache);

    // Revoke in the (same-root) table and reprogram the entry: the
    // next check must walk the table again and fault, not hit the
    // stale cached leaf.
    table.setPerm(2_GiB, 64_KiB, Perm::none());
    cached.programTable(0, 0, 16_GiB, table.rootPa());
    res = cached.check(2_GiB, 8, AccessType::Load, PrivMode::User);
    EXPECT_FALSE(res.viaCache);
    EXPECT_EQ(res.fault, Fault::LoadAccessFault);
}

TEST_F(HpmpUnitTest, MachineModeBypasses)
{
    // No entries cover this address; M-mode must still succeed.
    auto res = unit.check(8_GiB, 8, AccessType::Store,
                          PrivMode::Machine);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(res.pmptRefs.empty());
}

TEST_F(HpmpUnitTest, NoMatchDeniesSU)
{
    EXPECT_EQ(unit.check(8_GiB, 8, AccessType::Load,
                         PrivMode::User).fault,
              Fault::LoadAccessFault);
    EXPECT_EQ(unit.check(8_GiB, 8, AccessType::Store,
                         PrivMode::Supervisor).fault,
              Fault::StoreAccessFault);
}

TEST_F(HpmpUnitTest, PmptwCacheShortCircuitsSecondCheck)
{
    PhysMem mem2(16_GiB);
    HpmpUnit cached(mem2, 16, 8);
    PmpTable table2(mem2, bumpAllocator(64_MiB), 2);
    table2.setPerm(2_GiB, 64_KiB, Perm::rw());
    cached.programTable(0, 0, 16_GiB, table2.rootPa());

    auto first = cached.check(2_GiB, 8, AccessType::Load,
                              PrivMode::User);
    EXPECT_FALSE(first.viaCache);
    EXPECT_EQ(first.pmptRefs.size(), 2u);

    auto second = cached.check(2_GiB + kPageSize, 8, AccessType::Load,
                               PrivMode::User);
    EXPECT_TRUE(second.viaCache);
    EXPECT_TRUE(second.pmptRefs.empty());

    cached.flushCache();
    auto third = cached.check(2_GiB, 8, AccessType::Load,
                              PrivMode::User);
    EXPECT_FALSE(third.viaCache);
}

TEST_F(HpmpUnitTest, DynamicModeSwitching)
{
    // The same entry flips between segment and table mode at runtime
    // (the flexibility contribution of §4.2).
    table.setPerm(1_GiB, 1_MiB, Perm::ro());
    unit.programSegment(0, 1_GiB, 1_MiB, Perm::rw());
    EXPECT_TRUE(unit.check(1_GiB, 8, AccessType::Store,
                           PrivMode::User).ok());

    unit.programTable(0, 1_GiB, 1_MiB, table.rootPa());
    // Offsets are region-relative: rebuild the table accordingly.
    PmpTable rel(mem, bumpAllocator(65_MiB), 2);
    rel.setPerm(0, 1_MiB, Perm::ro());
    unit.programTable(0, 1_GiB, 1_MiB, rel.rootPa());
    EXPECT_EQ(unit.check(1_GiB, 8, AccessType::Store,
                         PrivMode::User).fault,
              Fault::StoreAccessFault);
    EXPECT_TRUE(unit.check(1_GiB, 8, AccessType::Load,
                           PrivMode::User).ok());

    unit.programSegment(0, 1_GiB, 1_MiB, Perm::rw());
    EXPECT_TRUE(unit.check(1_GiB, 8, AccessType::Store,
                           PrivMode::User).ok());
}

TEST_F(HpmpUnitTest, CheckPermMatchesProbe)
{
    // A TLB fill inlines HpmpCheckResult::perm in place of a second
    // walk through probe(): for every passing check not answered by
    // the PMPTW-Cache, the two must agree (M-mode: rwx, as
    // Machine::physPermProbe returns).
    table.setPerm(2_GiB, 64_KiB, Perm::rw());
    table.setPerm(2_GiB + 64_KiB, 64_KiB, Perm::rx());
    table.setPerm(2_GiB + 128_KiB, kPageSize, Perm::xo());
    table.setPerm(4_GiB, 32_MiB, Perm::ro(), /*allow_huge=*/true);
    HpmpUnit cached(mem, 16, 8);
    for (HpmpUnit *u : {&unit, &cached}) {
        u->programSegment(0, 1_GiB, 16_MiB, Perm::rw());
        u->programSegment(1, 3_GiB, 1_MiB, Perm::rx());
        u->programTable(2, 0, 16_GiB, table.rootPa());
    }

    const Addr addrs[] = {
        1_GiB, 1_GiB + 8_MiB,               // segment rw
        3_GiB + 4_KiB,                      // segment rx
        2_GiB, 2_GiB + 60_KiB,              // leaf pmpte rw
        2_GiB + 64_KiB, 2_GiB + 100_KiB,    // leaf pmpte rx
        2_GiB + 128_KiB,                    // leaf pmpte xo
        4_GiB, 4_GiB + 31_MiB,              // huge pmpte ro
        6_GiB,                              // no permission
    };
    unsigned compared = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (HpmpUnit *u : {&unit, &cached}) {
            for (Addr pa : addrs) {
                for (AccessType type : {AccessType::Load, AccessType::Store,
                                        AccessType::Fetch}) {
                    for (PrivMode priv : {PrivMode::User,
                                          PrivMode::Supervisor,
                                          PrivMode::Machine}) {
                        const HpmpCheckResult r = u->check(pa, 8, type, priv);
                        if (!r.ok() || r.viaCache)
                            continue;
                        const Perm want = priv == PrivMode::Machine
                                              ? Perm::rwx()
                                              : u->probe(pa);
                        EXPECT_EQ(r.perm, want)
                            << "pa " << pa << " type " << int(type)
                            << " priv " << int(priv);
                        ++compared;
                    }
                }
            }
        }
    }
    // Every passing class above was compared at least once.
    EXPECT_GT(compared, 100u);
}

TEST_F(HpmpUnitTest, CsrWriteAccounting)
{
    unit.resetCsrWrites();
    unit.programSegment(0, 1_GiB, 1_MiB, Perm::rw());
    EXPECT_EQ(unit.csrWrites(), 2u);
    unit.programTable(1, 0, 16_GiB, table.rootPa());
    EXPECT_EQ(unit.csrWrites(), 6u);
    unit.disable(0);
    EXPECT_EQ(unit.csrWrites(), 8u);
}

} // namespace
} // namespace hpmp
