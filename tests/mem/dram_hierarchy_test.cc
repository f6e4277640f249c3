/**
 * @file
 * DRAM row-buffer model and full-hierarchy tests.
 */

#include <gtest/gtest.h>

#include "core/params.h"
#include "mem/dram.h"
#include "mem/hierarchy.h"

namespace hpmp
{
namespace
{

TEST(Dram, RowHitsAreCheaper)
{
    DramParams p;
    Dram dram(p);
    const unsigned first = dram.access(0x10000);
    const unsigned second = dram.access(0x10040);
    EXPECT_EQ(first, p.rowMissCycles);
    EXPECT_EQ(second, p.rowHitCycles);
    EXPECT_EQ(dram.rowHits(), 1u);
    EXPECT_EQ(dram.rowMisses(), 1u);
}

TEST(Dram, PrechargeClosesRows)
{
    DramParams p;
    Dram dram(p);
    dram.access(0x0);
    dram.precharge();
    EXPECT_EQ(dram.access(0x0), p.rowMissCycles);
}

TEST(Dram, DifferentRowsSameBankConflict)
{
    DramParams p;
    Dram dram(p);
    dram.access(0x0);
    // Same bank, different row: numBanks * rowBytes further on.
    const Addr conflict = Addr(p.numBanks) * p.rowBytes;
    EXPECT_EQ(dram.access(conflict), p.rowMissCycles);
    EXPECT_EQ(dram.access(0x0), p.rowMissCycles); // reopened
}

TEST(Hierarchy, LatencyOrdering)
{
    MachineParams mp = rocketParams();
    MemoryHierarchy h(mp.hier);

    const auto cold = h.access(0x100000);
    EXPECT_EQ(cold.servicedBy, MemLevel::Dram);
    const auto warm = h.access(0x100000);
    EXPECT_EQ(warm.servicedBy, MemLevel::L1);
    EXPECT_GT(cold.cycles, warm.cycles);
}

TEST(Hierarchy, WarmLineDepthControlsHitLevel)
{
    MachineParams mp = rocketParams();
    MemoryHierarchy h(mp.hier);

    h.warmLine(0x200000, MemLevel::LLC);
    EXPECT_EQ(h.access(0x200000).servicedBy, MemLevel::LLC);

    h.flushAll();
    h.warmLine(0x200000, MemLevel::L2);
    EXPECT_EQ(h.access(0x200000).servicedBy, MemLevel::L2);

    h.flushAll();
    h.warmLine(0x200000, MemLevel::L1);
    EXPECT_EQ(h.access(0x200000).servicedBy, MemLevel::L1);
}

TEST(Hierarchy, FetchUsesICache)
{
    MachineParams mp = rocketParams();
    MemoryHierarchy h(mp.hier);
    h.access(0x300000, true); // fetch fill
    EXPECT_TRUE(h.l1i().probe(0x300000));
    EXPECT_FALSE(h.l1d().probe(0x300000));
    // Data-side access to the same line misses L1D but hits L2.
    EXPECT_EQ(h.access(0x300000).servicedBy, MemLevel::L2);
}

TEST(Hierarchy, FlushLineEvictsEverywhere)
{
    MachineParams mp = rocketParams();
    MemoryHierarchy h(mp.hier);
    h.access(0x400000);
    h.flushLine(0x400000);
    EXPECT_EQ(h.access(0x400000).servicedBy, MemLevel::Dram);
}

TEST(Hierarchy, BoomDramCostsMoreCyclesThanRocket)
{
    // Same wall-clock DRAM at 3.2 GHz vs 1 GHz.
    EXPECT_GT(boomParams().hier.dram.rowMissCycles,
              rocketParams().hier.dram.rowMissCycles);
}

} // namespace
} // namespace hpmp
