/**
 * @file
 * Malformed-pmpte hardening tests: reserved encodings, corrupt
 * pointer chains and injected bit flips must deny the access (access
 * fault) — never panic the simulator. Table contents are
 * monitor-written, but injected faults (and, in a real deployment,
 * DRAM corruption) can reach them.
 */

#include <gtest/gtest.h>

#include "base/fault_inject.h"
#include "base/frame_alloc.h"
#include "hpmp/hpmp_unit.h"
#include "pmpt/pmp_table.h"
#include "pmpt/pmpt_walker.h"

namespace hpmp
{
namespace
{

class MalformedPmpteTest : public ::testing::Test
{
  protected:
    MalformedPmpteTest() : mem(16_GiB), table(mem, bumpAllocator(64_MiB))
    {
        table.setPerm(1_GiB, 1_MiB, Perm::rw());
    }

    ~MalformedPmpteTest() override
    {
        FaultInjector::instance().disable();
    }

    Addr
    rootSlot(uint64_t offset) const
    {
        return table.rootPa() + pmpt_geom::indexAt(offset, 1) * 8;
    }

    Addr
    leafSlot(uint64_t offset) const
    {
        const RootPmpte root{mem.read64(rootSlot(offset))};
        return root.tablePa() + pmpt_geom::indexAt(offset, 0) * 8;
    }

    PmptWalkResult
    walk(uint64_t offset) const
    {
        return walkPmpTable(mem, table.rootPa(), table.levels(), offset);
    }

    PhysMem mem;
    PmpTable table;
};

TEST_F(MalformedPmpteTest, ReservedRootBitDeniesAccess)
{
    const Addr slot = rootSlot(1_GiB);
    mem.write64(slot, mem.read64(slot) | (1ULL << 4)); // Fig. 6-c rsvd
    const PmptWalkResult result = walk(1_GiB);
    EXPECT_TRUE(result.malformed);
    EXPECT_FALSE(result.valid);
    EXPECT_EQ(result.perm, Perm::none());
}

TEST_F(MalformedPmpteTest, ReservedHighRootBitsDenyAccess)
{
    const Addr slot = rootSlot(1_GiB);
    mem.write64(slot, mem.read64(slot) | (1ULL << 60)); // bits 63:49
    EXPECT_TRUE(walk(1_GiB).malformed);
}

TEST_F(MalformedPmpteTest, HugeLeafWithPointerBitsDeniesAccess)
{
    // A huge leaf has no pointer field; stray PPN bits mark it
    // malformed rather than being silently ignored.
    uint64_t raw = RootPmpte::huge(Perm::rw()).raw;
    raw = insertBits(raw, 48, 5, 0x123);
    mem.write64(rootSlot(1_GiB), raw);
    EXPECT_TRUE(walk(1_GiB).malformed);

    // The clean encoding resolves as a huge hit.
    mem.write64(rootSlot(1_GiB), RootPmpte::huge(Perm::rw()).raw);
    const PmptWalkResult clean = walk(1_GiB);
    EXPECT_TRUE(clean.valid);
    EXPECT_TRUE(clean.hugeHit);
    EXPECT_EQ(clean.perm, Perm::rw());
}

TEST_F(MalformedPmpteTest, ReservedLeafNibbleFaultsOnlyThatPage)
{
    const Addr slot = leafSlot(1_GiB);
    // Set the reserved bit (bit 3) of page 2's nibble.
    mem.write64(slot, mem.read64(slot) | (1ULL << (2 * 4 + 3)));

    const PmptWalkResult bad = walk(1_GiB + 2 * kPageSize);
    EXPECT_TRUE(bad.malformed);
    EXPECT_FALSE(bad.valid);
    // Sibling pages of the same leaf pmpte still resolve.
    const PmptWalkResult good = walk(1_GiB + 3 * kPageSize);
    EXPECT_TRUE(good.valid);
    EXPECT_EQ(good.perm, Perm::rw());
}

TEST_F(MalformedPmpteTest, PointerOutsidePhysMemDeniesAccess)
{
    // A pointer chain leading out of physical memory is denied, not
    // followed into a simulator panic.
    mem.write64(rootSlot(1_GiB), RootPmpte::pointer(32_GiB).raw);
    const PmptWalkResult result = walk(1_GiB);
    EXPECT_TRUE(result.malformed);
    EXPECT_FALSE(result.valid);
}

TEST_F(MalformedPmpteTest, BuilderLookupReportsCorruptPointerChain)
{
    // The builder's functional lookup()/valid() bounds-check pointer
    // pmptes against the node pages the table actually owns: a
    // corrupted pointer — even one aimed at valid, non-table memory —
    // is reported and treated as invalid, never chased.
    const Addr slot = rootSlot(1_GiB);
    mem.write64(slot, RootPmpte::pointer(2_GiB).raw);
    EXPECT_EQ(table.lookup(1_GiB), Perm::none());
    EXPECT_FALSE(table.valid(1_GiB));
    EXPECT_EQ(table.corruptPointers(), 2u);

    // A chain leading out of physical memory entirely must also be
    // caught here, before the read would fault the simulator.
    mem.write64(slot, RootPmpte::pointer(32_GiB).raw);
    EXPECT_EQ(table.lookup(1_GiB), Perm::none());
    EXPECT_FALSE(table.valid(1_GiB));
    EXPECT_EQ(table.corruptPointers(), 4u);

    // Untouched offsets (other root slots) are unaffected.
    table.setPerm(2_GiB, 64_KiB, Perm::ro());
    EXPECT_EQ(table.lookup(2_GiB), Perm::ro());
    EXPECT_TRUE(table.valid(2_GiB));
    EXPECT_EQ(table.corruptPointers(), 4u);
}

TEST_F(MalformedPmpteTest, UnsupportedTableDepthDeniesAccess)
{
    // A corrupted PmptBaseReg Mode field can claim depths the walker
    // does not implement.
    EXPECT_TRUE(walkPmpTable(mem, table.rootPa(), 5, 1_GiB).malformed);
    EXPECT_TRUE(walkPmpTable(mem, table.rootPa(), 1, 1_GiB).malformed);
}

TEST_F(MalformedPmpteTest, HpmpCheckRaisesAccessFaultOnMalformed)
{
    HpmpUnit unit(mem);
    unit.programTable(0, 0, 16_GiB, table.rootPa(), table.levels());

    ASSERT_TRUE(
        unit.check(1_GiB, 8, AccessType::Load, PrivMode::Supervisor)
            .ok());
    const Addr slot = rootSlot(1_GiB);
    mem.write64(slot, mem.read64(slot) | (1ULL << 4));
    const HpmpCheckResult result =
        unit.check(1_GiB, 8, AccessType::Load, PrivMode::Supervisor);
    EXPECT_EQ(result.fault, Fault::LoadAccessFault);
    EXPECT_TRUE(result.viaTable);
    // The functional probe view agrees: no permission.
    EXPECT_EQ(unit.probe(1_GiB), Perm::none());
}

TEST_F(MalformedPmpteTest, CachedReservedNibbleStillFaults)
{
    HpmpUnit unit(mem, 16, /*pmptw_entries=*/8);
    unit.programTable(0, 0, 16_GiB, table.rootPa(), table.levels());

    // Warm the PMPTW-Cache with the leaf, then corrupt one nibble and
    // refill: the cache-hit path must deny exactly like the walker.
    ASSERT_TRUE(
        unit.check(1_GiB, 8, AccessType::Load, PrivMode::Supervisor)
            .ok());
    const Addr slot = leafSlot(1_GiB);
    mem.write64(slot, mem.read64(slot) | (1ULL << (5 * 4 + 3)));
    unit.flushCache();
    // First check walks and faults; re-check the sibling to cache the
    // corrupt leaf, then hit the reserved nibble through the cache.
    const Addr bad_pa = 1_GiB + 5 * kPageSize;
    EXPECT_EQ(unit.check(bad_pa, 8, AccessType::Load,
                         PrivMode::Supervisor).fault,
              Fault::LoadAccessFault);
    ASSERT_TRUE(
        unit.check(1_GiB, 8, AccessType::Load, PrivMode::Supervisor)
            .ok());
    const HpmpCheckResult hit =
        unit.check(bad_pa, 8, AccessType::Load, PrivMode::Supervisor);
    EXPECT_TRUE(hit.viaCache);
    EXPECT_EQ(hit.fault, Fault::LoadAccessFault);
}

TEST_F(MalformedPmpteTest, InjectedWriteFaultThrowsOutsideTransactions)
{
    // Raw table users (no monitor transaction) see the injected store
    // failure as the InjectedFault exception itself.
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(3);
    injector.armNth("pmpt.write_entry", 1);
    EXPECT_THROW(table.setPerm(2_GiB, kPageSize, Perm::rw()),
                 InjectedFault);
    injector.disable();
}

TEST_F(MalformedPmpteTest, InjectedBitFlipNeverPanics)
{
    FaultInjector &injector = FaultInjector::instance();
    for (uint64_t seed = 1; seed <= 16; ++seed) {
        // Fresh table per round: the flip lands in a different store
        // (and a different bit) each seed.
        PmpTable t(mem, bumpAllocator(8_GiB + 64_MiB * seed));
        injector.enable(seed);
        injector.armNth("pmpt.write_entry.flip", 1 + (seed % 2));
        t.setPerm(3_GiB, 64_KiB, Perm::rwx());
        injector.disable();
        // Whatever bit flipped, every walk over the span (and its
        // neighborhood) must resolve or deny — never crash.
        for (Addr off = 3_GiB - 32_MiB; off <= 3_GiB + 32_MiB;
             off += kPageSize) {
            const PmptWalkResult r =
                walkPmpTable(mem, t.rootPa(), t.levels(), off);
            if (r.malformed) {
                EXPECT_FALSE(r.valid);
            }
        }
    }
}

} // namespace
} // namespace hpmp
