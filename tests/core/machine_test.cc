/**
 * @file
 * End-to-end Machine tests: the reference-count invariants of the
 * paper's Figures 2 and 4 (4 refs bare, 12 refs with a 2-level
 * permission table, 6 refs with HPMP on Sv39), TLB/PWC interactions,
 * fault behaviour and permission inlining.
 */

#include <gtest/gtest.h>

#include "workloads/micro_env.h"

namespace hpmp
{
namespace
{

constexpr Addr kDataBase = MicroEnv::kDataBase;
constexpr Addr kVa = 0x40000000;

/** Fixture building one mapped page under a selectable scheme. */
class MachineRefTest : public ::testing::TestWithParam<IsolationScheme>
{
  protected:
    void
    SetUp() override
    {
        env = std::make_unique<MicroEnv>(rocketParams(), GetParam());
        machine = &env->machine();
        pt = &env->pt();
        pt->map(kVa, kDataBase, Perm::rw(), true);
        machine->coldReset();
    }

    std::unique_ptr<MicroEnv> env;
    Machine *machine = nullptr;
    PageTable *pt = nullptr;
};

TEST_P(MachineRefTest, ColdLoadReferenceCounts)
{
    const AccessOutcome out = machine->access(kVa, AccessType::Load);
    ASSERT_TRUE(out.ok()) << toString(out.fault);
    EXPECT_FALSE(out.tlbHit);
    EXPECT_EQ(out.ptRefs, 3u);  // Sv39: three PT levels
    EXPECT_EQ(out.dataRefs, 1u);
    EXPECT_EQ(out.adRefs, 0u);  // leaves are pre-accessed/dirty

    switch (GetParam()) {
      case IsolationScheme::None:
      case IsolationScheme::Pmp:
        // Fig. 2-a/b: segment checks add no memory references.
        EXPECT_EQ(out.pmptRefs, 0u);
        EXPECT_EQ(out.totalRefs(), 4u);
        break;
      case IsolationScheme::PmpTable:
        // Fig. 2-c: +2 per reference -> 12 total.
        EXPECT_EQ(out.pmptRefs, 8u);
        EXPECT_EQ(out.totalRefs(), 12u);
        break;
      case IsolationScheme::Hpmp:
        // Fig. 4: PT pages covered by the segment -> 6 total.
        EXPECT_EQ(out.pmptRefs, 2u);
        EXPECT_EQ(out.totalRefs(), 6u);
        break;
    }
}

TEST_P(MachineRefTest, TlbHitHasOnlyDataRef)
{
    ASSERT_TRUE(machine->access(kVa, AccessType::Load).ok());
    const AccessOutcome out = machine->access(kVa, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.totalRefs(), 1u); // permission inlined in the TLB
    EXPECT_EQ(out.pmptRefs, 0u);
}

TEST_P(MachineRefTest, SfenceForcesRewalkButPwcWasFlushedToo)
{
    ASSERT_TRUE(machine->access(kVa, AccessType::Load).ok());
    machine->sfenceVma();
    const AccessOutcome out = machine->access(kVa, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.tlbHit);
    EXPECT_EQ(out.ptRefs, 3u);
}

TEST_P(MachineRefTest, PwcSkipsUpperLevelsForNeighborPage)
{
    pt->map(kVa + kPageSize, kDataBase + kPageSize, Perm::rw(), true);
    machine->sfenceVma();
    ASSERT_TRUE(machine->access(kVa, AccessType::Load).ok());
    // Neighbouring page: same L2/L1 entries (PWC hits), fresh L0.
    const AccessOutcome out =
        machine->access(kVa + kPageSize, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.tlbHit);
    EXPECT_EQ(out.pwcSkips, 2u);
    EXPECT_EQ(out.ptRefs, 1u);
    if (GetParam() == IsolationScheme::PmpTable) {
        EXPECT_EQ(out.pmptRefs, 4u); // L0 PTE + data
    }
    if (GetParam() == IsolationScheme::Hpmp) {
        EXPECT_EQ(out.pmptRefs, 2u); // data only
    }
}

TEST_P(MachineRefTest, StoreWithCleanPageAddsAdUpdate)
{
    // Remap with D=0 so the first store performs the update.
    pt->unmap(kVa);
    pt->map(kVa, kDataBase, Perm::rw(), true, 0, true, false);
    machine->coldReset();
    const AccessOutcome out = machine->access(kVa, AccessType::Store);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.adRefs, 1u);
    if (GetParam() == IsolationScheme::PmpTable) {
        // The A/D write is itself table-checked: +2 more.
        EXPECT_EQ(out.pmptRefs, 10u);
    }
}

TEST_P(MachineRefTest, UnmappedVaFaults)
{
    const AccessOutcome out =
        machine->access(0x7700000000, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::LoadPageFault);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MachineRefTest,
    ::testing::Values(IsolationScheme::None, IsolationScheme::Pmp,
                      IsolationScheme::PmpTable, IsolationScheme::Hpmp),
    [](const ::testing::TestParamInfo<IsolationScheme> &param_info) {
        switch (param_info.param) {
          case IsolationScheme::None: return "none";
          case IsolationScheme::Pmp: return "pmp";
          case IsolationScheme::PmpTable: return "pmpt";
          case IsolationScheme::Hpmp: return "hpmp";
        }
        return "unknown";
    });

TEST(MachineLatency, ColdSlowerThanWarm)
{
    MicroEnv env(rocketParams(), IsolationScheme::None);
    env.pt().map(kVa, kDataBase, Perm::rw(), true);
    Machine &machine = env.machine();
    machine.coldReset();

    const auto cold = machine.access(kVa, AccessType::Load);
    const auto warm = machine.access(kVa, AccessType::Load);
    ASSERT_TRUE(cold.ok());
    ASSERT_TRUE(warm.ok());
    EXPECT_GT(cold.cycles, 4 * warm.cycles);
}

TEST(MachineFaults, PhysicalDenialIsAccessFault)
{
    // PT pool readable, but the data page is outside every segment.
    MicroEnv env(rocketParams(), IsolationScheme::Pmp);
    env.pt().map(kVa, 2_GiB, Perm::rw(), true);

    const auto out = env.machine().access(kVa, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::LoadAccessFault);
}

} // namespace
} // namespace hpmp
