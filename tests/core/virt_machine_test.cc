/**
 * @file
 * Virtualized-machine tests: the reference-count reductions of §6
 * (48 -> 24 -> 18 for Sv39/Sv39x4 with a 2-level permission table),
 * hfence semantics and combined-TLB behaviour. Uses the VirtEnv
 * helper that places NPT/GPT pages in contiguous pools.
 */

#include <gtest/gtest.h>

#include "workloads/virt_env.h"

namespace hpmp
{
namespace
{

class VirtRefTest : public ::testing::TestWithParam<VirtScheme>
{
};

TEST_P(VirtRefTest, ColdReferenceCounts)
{
    VirtEnv env(CoreKind::Rocket, GetParam());
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();

    const AccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok()) << toString(out.fault);

    // Base 3D walk: 12 NPT + 3 GPT + 1 data = 16 references.
    EXPECT_EQ(out.nptRefs, 12u);
    EXPECT_EQ(out.gptRefs, 3u);
    EXPECT_EQ(out.dataRefs, 1u);

    switch (GetParam()) {
      case VirtScheme::Pmp:
        EXPECT_EQ(out.pmptRefs, 0u);
        EXPECT_EQ(out.totalRefs(), 16u);
        break;
      case VirtScheme::Pmpt:
        // +2 per reference: 48 total (§6).
        EXPECT_EQ(out.pmptRefs, 32u);
        EXPECT_EQ(out.totalRefs(), 48u);
        break;
      case VirtScheme::Hpmp:
        // NPT pages covered by a segment: 16 + 8 = 24 (§6).
        EXPECT_EQ(out.pmptRefs, 8u);
        EXPECT_EQ(out.totalRefs(), 24u);
        break;
      case VirtScheme::HpmpGpt:
        // GPT pages in a segment too: 16 + 2 = 18 (§6, HPMP-GPT).
        EXPECT_EQ(out.pmptRefs, 2u);
        EXPECT_EQ(out.totalRefs(), 18u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VirtRefTest,
    ::testing::Values(VirtScheme::Pmp, VirtScheme::Pmpt,
                      VirtScheme::Hpmp, VirtScheme::HpmpGpt),
    [](const ::testing::TestParamInfo<VirtScheme> &param_info) {
        switch (param_info.param) {
          case VirtScheme::Pmp: return "pmp";
          case VirtScheme::Pmpt: return "pmpt";
          case VirtScheme::Hpmp: return "hpmp";
          case VirtScheme::HpmpGpt: return "hpmpgpt";
        }
        return "unknown";
    });

TEST(VirtMachine, CombinedTlbHitIsDataOnly)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmpt);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();

    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());
    const AccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.totalRefs(), 1u);
}

TEST(VirtMachine, HfenceVvmaKeepsGStage)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    env.vm().hfenceVvma();
    const AccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out.tlbHit);
    // Guest walk re-runs, but G-stage translations are still cached:
    // no NPT references at all.
    EXPECT_EQ(out.nptRefs, 0u);
    EXPECT_EQ(out.gptRefs, 3u);
    EXPECT_EQ(out.gTlbHits, 4u);
}

TEST(VirtMachine, HfenceGvmaDropsEverything)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    env.vm().hfenceGvma();
    const AccessOutcome out = env.vm().access(gva, AccessType::Load);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.nptRefs, 12u);
    EXPECT_EQ(out.gptRefs, 3u);
}

TEST(VirtMachine, HfenceVvmaFlushContractCounters)
{
    // The flush contract, asserted through the TLB stat counters
    // themselves rather than walk-outcome refs: hfence.vvma drops the
    // combined TLB (next access *misses* it) but keeps the G-stage TLB
    // (every G-stage translation of the re-walk *hits*).
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    Tlb &combined = env.vm().combinedTlb();
    Tlb &gtlb = env.vm().gStageTlb();
    const uint64_t comb_misses = combined.misses();
    const uint64_t g_hits = gtlb.l1Hits() + gtlb.l2Hits();
    const uint64_t g_misses = gtlb.misses();

    env.vm().hfenceVvma();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    EXPECT_EQ(combined.misses(), comb_misses + 1);
    // 3 GPT frames + the data page: 4 G-stage lookups, all cached.
    EXPECT_EQ(gtlb.l1Hits() + gtlb.l2Hits(), g_hits + 4);
    EXPECT_EQ(gtlb.misses(), g_misses);
}

TEST(VirtMachine, HfenceGvmaFlushContractCounters)
{
    // hfence.gvma must drop the G-stage TLB too: the same re-walk that
    // hit 4 times after vvma misses 4 times after gvma.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    Tlb &combined = env.vm().combinedTlb();
    Tlb &gtlb = env.vm().gStageTlb();
    const uint64_t comb_misses = combined.misses();
    const uint64_t g_hits = gtlb.l1Hits() + gtlb.l2Hits();
    const uint64_t g_misses = gtlb.misses();

    env.vm().hfenceGvma();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    EXPECT_EQ(combined.misses(), comb_misses + 1);
    EXPECT_EQ(gtlb.l1Hits() + gtlb.l2Hits(), g_hits);
    EXPECT_EQ(gtlb.misses(), g_misses + 4);
}

TEST(VirtMachine, NeighborPageUsesGuestPwc)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(2);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    const AccessOutcome out =
        env.vm().access(gva + kPageSize, AccessType::Load);
    ASSERT_TRUE(out.ok());
    // L2/L1 gptes cached in the guest PWC; the L0 gpte's G-stage walk
    // hits the G-TLB (same guest leaf-table page). Only the new data
    // page's G-stage walk (3 NPT refs) and the two end references
    // remain.
    EXPECT_EQ(out.gptRefs, 1u);
    EXPECT_EQ(out.nptRefs, 3u);
    EXPECT_EQ(out.dataRefs, 1u);
    EXPECT_EQ(out.gTlbHits, 1u);
}

TEST(VirtMachine, StorePermissionInliningBlocksEscalation)
{
    // A combined-TLB entry filled by a load must not let a store
    // bypass a read-only physical permission.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmpt);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    // Stores are allowed by the guest PT (rwx); they are also allowed
    // physically here, so the store succeeds through the TLB...
    const auto ok_store = env.vm().access(gva, AccessType::Store);
    EXPECT_TRUE(ok_store.ok());
    EXPECT_TRUE(ok_store.tlbHit);
}

TEST(VirtMachine, CombinedTlbKeepsRealUserBit)
{
    // Regression: the combined TLB used to be filled with a hardcoded
    // user=true, so a supervisor-only guest mapping became
    // user-accessible on a TLB hit.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva = env.mapGuestPages(1, 1, /*user=*/false);
    env.vm().coldReset();

    // Warm the combined TLB from supervisor mode.
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    env.vm().setGuestPriv(PrivMode::User);
    const AccessOutcome out = env.vm().access(gva, AccessType::Load);
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::LoadPageFault);

    env.vm().setGuestPriv(PrivMode::Supervisor);
    EXPECT_TRUE(env.vm().access(gva, AccessType::Load).ok());
}

TEST(VirtMachine, CombinedTlbEnforcesGStagePerm)
{
    // Regression: combined-TLB fills used to discard the G-stage leaf
    // permission, so a store allowed by the VS stage but forbidden by
    // the G stage succeeded on a TLB hit.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva =
        env.mapGuestPages(1, 1, /*user=*/true, /*npt_perm=*/Perm::ro());
    env.vm().coldReset();

    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    const AccessOutcome hit = env.vm().access(gva, AccessType::Store);
    EXPECT_TRUE(hit.tlbHit);
    EXPECT_EQ(hit.fault, Fault::GuestStorePageFault);
}

TEST(VirtMachine, GStageTlbEnforcesCachedPerm)
{
    // Regression: the G-stage TLB hook used to cache Perm::rwx(), so
    // a short-circuited walk skipped the G-stage permission check.
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmp);
    const Addr gva =
        env.mapGuestPages(1, 1, /*user=*/true, /*npt_perm=*/Perm::ro());
    env.vm().coldReset();
    ASSERT_TRUE(env.vm().access(gva, AccessType::Load).ok());

    // Drop the combined TLB but keep the G-stage TLB: the store's
    // walk consults the cached G-stage leaf and must still fault.
    env.vm().hfenceVvma();
    const AccessOutcome out = env.vm().access(gva, AccessType::Store);
    EXPECT_FALSE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::GuestStorePageFault);
}

TEST(VirtMachine, GuestStoreCountsMatchLoads)
{
    VirtEnv env(CoreKind::Rocket, VirtScheme::Hpmp);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    const auto out = env.vm().access(gva, AccessType::Store);
    ASSERT_TRUE(out.ok());
    // Pages are created with A/D set: same counts as a load (24).
    EXPECT_EQ(out.totalRefs(), 24u);
}

TEST(VirtMachine, LatencyOrderingAcrossSchemes)
{
    // Cold-access latency must order PMP < HPMP-GPT < HPMP < PMPT.
    uint64_t cycles[4];
    const VirtScheme schemes[4] = {VirtScheme::Pmp, VirtScheme::HpmpGpt,
                                   VirtScheme::Hpmp, VirtScheme::Pmpt};
    for (int i = 0; i < 4; ++i) {
        VirtEnv env(CoreKind::Rocket, schemes[i]);
        const Addr gva = env.mapGuestPages(1);
        env.vm().coldReset();
        const auto out = env.vm().access(gva, AccessType::Load);
        ASSERT_TRUE(out.ok());
        cycles[i] = out.cycles;
    }
    EXPECT_LT(cycles[0], cycles[1]);
    EXPECT_LT(cycles[1], cycles[2]);
    EXPECT_LT(cycles[2], cycles[3]);
}

} // namespace
} // namespace hpmp
