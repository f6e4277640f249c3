/**
 * @file
 * Extended Machine tests: paging-mode sweeps (the fn.1 claim that
 * deeper tables make the extra dimension worse), the ePMP 64-entry
 * configuration, 3-level PMP Tables in the full access path, fetch
 * routing, bare mode, PMPTW-cache interplay and latency ordering
 * properties across schemes.
 */

#include <gtest/gtest.h>

#include "workloads/micro_env.h"

namespace hpmp
{
namespace
{

constexpr Addr kData = MicroEnv::kDataBase;
constexpr Addr kVa = 0x40000000;

/** A MicroEnv with kVa mapped to kData, caches cold. */
struct Rig : MicroEnv
{
    explicit Rig(MachineParams params, IsolationScheme scheme,
                 PagingMode mode = PagingMode::Sv39,
                 unsigned pmpt_levels = 2)
        : MicroEnv(params, scheme, mode, pmpt_levels)
    {
        pt().map(kVa, kData, Perm::rw(), true);
        machine().coldReset();
    }
};

/** Paging-mode sweep: refs = levels+1 base, x3 under PMPT, +2 HPMP. */
class ModeSweep : public ::testing::TestWithParam<PagingMode>
{
};

TEST_P(ModeSweep, ExtraDimensionGrowsWithDepth)
{
    const unsigned levels = ptLevels(GetParam());

    Rig pmp(rocketParams(), IsolationScheme::Pmp, GetParam());
    Rig pmpt(rocketParams(), IsolationScheme::PmpTable, GetParam());
    Rig hpmp(rocketParams(), IsolationScheme::Hpmp, GetParam());

    const auto out_pmp = pmp.machine().access(kVa, AccessType::Load);
    const auto out_pmpt = pmpt.machine().access(kVa, AccessType::Load);
    const auto out_hpmp = hpmp.machine().access(kVa, AccessType::Load);
    ASSERT_TRUE(out_pmp.ok());
    ASSERT_TRUE(out_pmpt.ok());
    ASSERT_TRUE(out_hpmp.ok());

    EXPECT_EQ(out_pmp.totalRefs(), levels + 1);
    EXPECT_EQ(out_pmpt.totalRefs(), 3 * (levels + 1));
    EXPECT_EQ(out_hpmp.totalRefs(), levels + 1 + 2);

    // The PT-page share of the extra dimension grows with depth
    // (footnote 1): HPMP's savings grow accordingly.
    const unsigned saved = out_pmpt.totalRefs() - out_hpmp.totalRefs();
    EXPECT_EQ(saved, 2 * levels);
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeSweep,
                         ::testing::Values(PagingMode::Sv39,
                                           PagingMode::Sv48,
                                           PagingMode::Sv57));

TEST(MachineMore, ThreeLevelPmpTableAddsThreeRefsPerCheck)
{
    Rig rig(rocketParams(), IsolationScheme::PmpTable, PagingMode::Sv39,
            /*pmpt_levels=*/3);
    const auto out = rig.machine().access(kVa, AccessType::Load);
    ASSERT_TRUE(out.ok());
    // 4 checked refs x 3 pmpt levels.
    EXPECT_EQ(out.pmptRefs, 12u);
    EXPECT_EQ(out.totalRefs(), 16u);
}

TEST(MachineMore, Epmp64Entries)
{
    MachineParams params = rocketParams();
    params.hpmpEntries = 64;
    Machine machine(params);
    // Program many segment regions; the 64-entry file takes them all.
    for (unsigned i = 0; i < 60; ++i) {
        machine.hpmp().programSegment(i, 4_GiB + uint64_t(i) * 64_KiB,
                                      64_KiB, Perm::rw());
    }
    machine.setPriv(PrivMode::Supervisor);
    AccessOutcome out;
    EXPECT_EQ(machine.checkPhys(4_GiB + 59 * 64_KiB, AccessType::Load,
                                out),
              Fault::None);
    EXPECT_EQ(machine.checkPhys(4_GiB + 61 * 64_KiB, AccessType::Load,
                                out),
              Fault::LoadAccessFault);
}

TEST(MachineMore, SuperpageLeafFillsOneTlbEntry)
{
    Rig rig(rocketParams(), IsolationScheme::Hpmp);
    rig.pt().map(0x80000000, kData + 4_MiB, Perm::rw(), true,
               /*level=*/1);
    rig.machine().sfenceVma();

    ASSERT_TRUE(rig.machine().access(0x80000000, AccessType::Load).ok());
    // A different 4 KiB page of the same 2 MiB superpage: TLB hit.
    const auto out =
        rig.machine().access(0x80000000 + 0x123000, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.totalRefs(), 1u);
}

TEST(MachineMore, FetchGoesThroughICache)
{
    Rig rig(rocketParams(), IsolationScheme::Pmp);
    rig.pt().map(kVa + 2_MiB, kData + 2_MiB, Perm::rx(), true);
    rig.machine().sfenceVma();

    const auto out = rig.machine().access(kVa + 2_MiB, AccessType::Fetch);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(rig.machine().hier().l1i().probe(kData + 2_MiB));
    EXPECT_FALSE(rig.machine().hier().l1d().probe(kData + 2_MiB));
}

TEST(MachineMore, BareModeStillChecked)
{
    MicroEnv env(rocketParams(), IsolationScheme::Pmp);
    Machine &machine = env.machine();
    machine.setBare();
    machine.setPriv(PrivMode::Supervisor);

    EXPECT_TRUE(machine.access(4_GiB + 64, AccessType::Load).ok());
    EXPECT_EQ(machine.access(8_GiB, AccessType::Load).fault,
              Fault::LoadAccessFault);
}

TEST(MachineMore, PmptwCacheRemovesRepeatWalkRefs)
{
    MachineParams params = rocketParams();
    params.pmptwEntries = 8;
    Rig rig(params, IsolationScheme::PmpTable);

    const auto first = rig.machine().access(kVa, AccessType::Load);
    ASSERT_TRUE(first.ok());
    EXPECT_GT(first.pmptRefs, 0u);

    rig.machine().sfenceVma(); // TLB gone, PMPTW-cache survives
    const auto second = rig.machine().access(kVa, AccessType::Load);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.pmptRefs, 0u); // all checks served by the cache
}

TEST(MachineMore, LatencyOrderingPropertyAcrossSchemes)
{
    // For any paging mode and both cores: PMP <= HPMP <= PMPT on a
    // cold access.
    for (const CoreKind core : {CoreKind::Rocket, CoreKind::Boom}) {
        for (const PagingMode mode :
             {PagingMode::Sv39, PagingMode::Sv48}) {
            Rig pmp(machineParams(core), IsolationScheme::Pmp, mode);
            Rig hpmp(machineParams(core), IsolationScheme::Hpmp, mode);
            Rig pmpt(machineParams(core), IsolationScheme::PmpTable,
                     mode);
            const auto a = pmp.machine().access(kVa, AccessType::Load);
            const auto b = hpmp.machine().access(kVa, AccessType::Load);
            const auto c = pmpt.machine().access(kVa, AccessType::Load);
            EXPECT_LE(a.cycles, b.cycles);
            EXPECT_LE(b.cycles, c.cycles);
        }
    }
}

TEST(MachineMore, StoreToReadOnlyPageFaultsWithoutSideEffects)
{
    Rig rig(rocketParams(), IsolationScheme::Hpmp);
    rig.pt().map(kVa + 2_MiB, kData + 2_MiB, Perm::ro(), true);
    rig.machine().sfenceVma();

    const auto out = rig.machine().access(kVa + 2_MiB, AccessType::Store);
    EXPECT_EQ(out.fault, Fault::StorePageFault);
    // The failed access must not install a TLB entry.
    const auto retry = rig.machine().access(kVa + 2_MiB, AccessType::Load);
    ASSERT_TRUE(retry.ok());
    EXPECT_FALSE(retry.tlbHit);
}

TEST(MachineMore, TlbInliningBlocksEscalation)
{
    // A TLB entry filled by a load must not let a store slip past the
    // physical write protection.
    Rig rig(rocketParams(), IsolationScheme::PmpTable);
    rig.table()->setPerm(kData, 64_KiB, Perm::ro());
    rig.machine().coldReset();

    ASSERT_TRUE(rig.machine().access(kVa, AccessType::Load).ok());
    const auto store = rig.machine().access(kVa, AccessType::Store);
    EXPECT_EQ(store.fault, Fault::StoreAccessFault);
}

} // namespace
} // namespace hpmp
