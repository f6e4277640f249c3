/**
 * @file
 * Two-stage stale-translation tests: a guest whose combined TLB keeps
 * granting what a narrowed G-stage (or physical) permission now denies
 * is caught by the checker's two-stage oracle — bounded and counted
 * inside the shootdown window, a hard failure once the victim hart is
 * fenced — with the stale grant attributed to the stage that should
 * have denied it. Also: failed monitor calls restore every hart's virt
 * state digest-identically, hfence fences are costed into the call,
 * and the full virt chaos matrix (8 seeds x {4,8} harts, faults armed)
 * ends with zero post-ack stale grants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/fault_inject.h"
#include "base/frame_alloc.h"
#include "core/smp.h"
#include "core/virt_machine.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "pt/page_table.h"
#include "pt/pte.h"
#include "verify/chaos_engine.h"

namespace hpmp
{
namespace
{

constexpr Addr kArenaBase = 1_GiB;
constexpr uint64_t kArenaStride = 32_MiB;
constexpr Addr kGuestVa = 0x40000000;

/** One hart's guest over the shared memory; tables from its arena. */
struct TestGuest
{
    std::unique_ptr<PageTable> npt, gpt;
    Addr data = 0;
};

class VirtStaleTest : public ::testing::Test
{
  protected:
    ~VirtStaleTest() override
    {
        if (smp)
            smp->setInterleaveHook(nullptr);
        FaultInjector::instance().disable();
    }

    void
    makeSmp(unsigned harts)
    {
        SmpParams sp;
        sp.harts = harts;
        sp.schedSeed = 21;
        smp = std::make_unique<SmpSystem>(rocketParams(), sp);
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        for (unsigned h = 0; h < harts; ++h) {
            smp->hart(h).setPriv(PrivMode::Supervisor);
            smp->hart(h).setBare();
        }
        smp->enableVirt();
    }

    /** Register hart `hart`'s whole arena as a host-domain GMS. */
    void
    grantArena(unsigned hart, Perm perm)
    {
        const Addr base = kArenaBase + hart * kArenaStride;
        ASSERT_TRUE(
            monitor->addGms(0, {base, kArenaStride, perm, GmsLabel::Slow})
                .ok);
    }

    TestGuest
    buildGuest(unsigned hart)
    {
        TestGuest g;
        const Addr base = kArenaBase + hart * kArenaStride;
        g.npt = std::make_unique<PageTable>(
            smp->mem(), bumpAllocator(base), PagingMode::Sv39, 2);
        g.gpt = std::make_unique<PageTable>(
            smp->mem(), bumpAllocator(base + 4_MiB), PagingMode::Sv39, 0);
        g.data = base + 8_MiB;
        for (Addr off = 0; off < 64_KiB; off += kPageSize) {
            const Addr gpa = base + 4_MiB + off;
            EXPECT_TRUE(g.npt->map(gpa, gpa, Perm::rw(), true));
        }
        EXPECT_TRUE(g.npt->map(g.data, g.data, Perm::rwx(), true));
        EXPECT_TRUE(g.gpt->map(kGuestVa, g.data, Perm::rwx(), true));
        VirtMachine &vm = smp->virtHart(hart);
        vm.setHgatp(g.npt->rootPa());
        vm.setVsatp(g.gpt->rootPa());
        return g;
    }

    std::unique_ptr<SmpSystem> smp;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(VirtStaleTest, UnfencedStaleGrantIsAGStageViolation)
{
    makeSmp(2);
    grantArena(1, Perm::rwx());
    const TestGuest g = buildGuest(1);

    StaleChecker checker(*monitor);
    checker.addVirtWatch({1, kGuestVa, g.data, g.data, AccessType::Store});
    checker.setGuestPerm(1, kGuestVa, Perm::rwx());
    checker.setGpaPerm(1, g.data, Perm::rwx());
    smp->setInterleaveHook(&checker);

    // Warm hart 1's combined TLB (inlines VS+G+phys rwx), then verify
    // the quiescent baseline agrees in both directions.
    ASSERT_TRUE(smp->virtHart(1).access(kGuestVa, AccessType::Load).ok());
    ASSERT_TRUE(checker.checkQuiescent());

    // Narrow the committed G-stage leaf to read-only by rewriting the
    // NPT PTE in memory — without fencing hart 1. Its combined TLB
    // still holds the inlined rwx: the next probe is a stale grant on
    // a hart that *should* be fenced (no window is open).
    const auto slot = g.npt->leafPteAddr(g.data);
    ASSERT_TRUE(slot.has_value());
    smp->mem().write64(*slot,
                       Pte::leaf(g.data, Perm::ro(), true, true, true).raw);
    checker.setGpaPerm(1, g.data, Perm::ro());

    EXPECT_FALSE(checker.checkQuiescent());
    EXPECT_TRUE(checker.failed());
    EXPECT_GT(checker.postAckViolations(), 0u);
    EXPECT_GT(checker.staleGStageOrigin(), 0u);
    EXPECT_GT(checker.staleRwGrants(), 0u);
    EXPECT_EQ(checker.staleExecGrants(), 0u);
    EXPECT_NE(checker.failure().find("g-stage origin"), std::string::npos)
        << checker.failure();
}

TEST_F(VirtStaleTest, StaleExecutableGrantsAreAttributedSeparately)
{
    makeSmp(2);
    grantArena(1, Perm::rwx());
    const TestGuest g = buildGuest(1);

    // A second, execute-only guest page next to the data page: the
    // fetch watch hunts stale X grants under their own counter.
    const Addr xva = kGuestVa + kPageSize;
    const Addr xpa = g.data + kPageSize;
    // Supervisor-only VS leaf: S-mode fetches from U pages always
    // fault, so an executable guest page must have U clear.
    ASSERT_TRUE(g.npt->map(xpa, xpa, Perm::rwx(), true));
    ASSERT_TRUE(g.gpt->map(xva, xpa, Perm::xo(), false));

    StaleChecker checker(*monitor);
    checker.addVirtWatch({1, xva, xpa, xpa, AccessType::Fetch});
    checker.setGuestPerm(1, xva, Perm::xo());
    checker.setGpaPerm(1, xpa, Perm::rwx());
    smp->setInterleaveHook(&checker);

    // Warm hart 1's combined TLB through a successful fetch.
    ASSERT_TRUE(smp->virtHart(1).access(xva, AccessType::Fetch).ok());
    ASSERT_TRUE(checker.checkQuiescent());
    EXPECT_EQ(checker.staleExecGrants(), 0u);

    // Revoke execute at the VS stage without fencing hart 1: the
    // inlined X survives in the combined TLB, and the stale grant is
    // an *executable* one — attributed apart from RW grants, since a
    // hart still fetching revoked memory is the injectable-code bug.
    const auto slot = g.gpt->leafPteAddr(xva);
    ASSERT_TRUE(slot.has_value());
    smp->mem().write64(*slot,
                       Pte::leaf(xpa, Perm::ro(), false, true, true).raw);
    checker.setGuestPerm(1, xva, Perm::ro());

    EXPECT_FALSE(checker.checkQuiescent());
    EXPECT_TRUE(checker.failed());
    EXPECT_GT(checker.staleExecGrants(), 0u);
    EXPECT_EQ(checker.staleRwGrants(), 0u);
    EXPECT_NE(checker.failure().find("stale fetch"), std::string::npos)
        << checker.failure();
    EXPECT_NE(checker.failure().find("guest-stage origin"),
              std::string::npos)
        << checker.failure();
}

TEST_F(VirtStaleTest, HfenceShootdownClosesTheStaleWindow)
{
    makeSmp(2);
    grantArena(1, Perm::rwx());
    const TestGuest g = buildGuest(1);

    StaleChecker checker(*monitor);
    checker.addVirtWatch({1, kGuestVa, g.data, g.data, AccessType::Store});
    checker.setGuestPerm(1, kGuestVa, Perm::rwx());
    checker.setGpaPerm(1, g.data, Perm::rwx());
    smp->setInterleaveHook(&checker);

    ASSERT_TRUE(smp->virtHart(1).access(kGuestVa, AccessType::Load).ok());
    ASSERT_TRUE(checker.checkQuiescent());

    // The same narrowing, but routed the way the campaign routes it:
    // commit the oracle, rewrite the leaf, then fence through the
    // hgatp shootdown. No stale grant survives the fence.
    const auto slot = g.npt->leafPteAddr(g.data);
    ASSERT_TRUE(slot.has_value());
    smp->mem().write64(*slot,
                       Pte::leaf(g.data, Perm::ro(), true, true, true).raw);
    checker.setGpaPerm(1, g.data, Perm::ro());
    smp->virtHart(1).setHgatp(g.npt->rootPa());

    EXPECT_TRUE(checker.checkQuiescent());
    EXPECT_FALSE(checker.failed()) << checker.failure();
    EXPECT_EQ(checker.postAckViolations(), 0u);
}

TEST_F(VirtStaleTest, PreAckGuestStaleHitsAreBoundedWithPmpteOrigin)
{
    makeSmp(4);
    std::vector<TestGuest> guests;
    StaleChecker checker(*monitor);
    for (unsigned h = 1; h < 4; ++h) {
        grantArena(h, Perm::rwx());
        guests.push_back(buildGuest(h));
        checker.addVirtWatch({h, kGuestVa, guests.back().data,
                              guests.back().data, AccessType::Store});
        checker.setGuestPerm(h, kGuestVa, Perm::rwx());
        checker.setGpaPerm(h, guests.back().data, Perm::rwx());
    }
    smp->setInterleaveHook(&checker);
    for (unsigned h = 1; h < 4; ++h) {
        ASSERT_TRUE(
            smp->virtHart(h).access(kGuestVa, AccessType::Load).ok());
    }
    ASSERT_TRUE(checker.checkQuiescent());

    // Narrow hart 1's arena physically (rwx -> ro) from hart 0. Inside
    // the shootdown window the not-yet-fenced guest still grants the
    // store from its combined TLB — a bounded pre-ack hit attributed
    // to the physical (pmpte) stage — and the post-window sweep is
    // clean because the remote hfence.gvma dropped the stale entry.
    smp->setCurrentHart(0);
    ASSERT_TRUE(
        monitor->setPerm(0, kArenaBase + kArenaStride, Perm::ro()).ok);

    EXPECT_GT(checker.virtProbesRun(), 0u);
    EXPECT_GE(checker.virtPreAckStaleHits(), 1u);
    EXPECT_GT(checker.stalePmpteOrigin(), 0u);
    EXPECT_EQ(checker.postAckViolations(), 0u);
    EXPECT_FALSE(checker.failed()) << checker.failure();
    EXPECT_TRUE(checker.checkQuiescent());
}

TEST_F(VirtStaleTest, FailedCallRestoresEveryHartsVirtState)
{
    for (const char *site : {"smp.hfence_deliver", "smp.hfence_ack"}) {
        makeSmp(4);
        std::vector<TestGuest> guests;
        for (unsigned h = 0; h < 4; ++h) {
            grantArena(h, Perm::rwx());
            guests.push_back(buildGuest(h));
        }

        std::vector<uint64_t> pre;
        for (unsigned h = 0; h < 4; ++h)
            pre.push_back(monitor->hartStateDigest(h));

        FaultInjector &injector = FaultInjector::instance();
        injector.enable(3);
        injector.armNth(site, 1);
        const MonitorResult r = monitor->addGms(
            0, {8_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast});
        injector.clearPlans();
        injector.disable();

        EXPECT_FALSE(r.ok) << site;
        EXPECT_EQ(r.code, MonitorError::InjectedFault) << site;
        EXPECT_NE(r.error.find(site), std::string::npos) << r.error;
        EXPECT_EQ(monitor->stats().get("hfence_lost"), 1u) << site;

        // Cross-hart rollback must restore the virt state too: the
        // digest includes vsatp/hgatp roots and guest privilege.
        for (unsigned h = 0; h < 4; ++h)
            EXPECT_EQ(monitor->hartStateDigest(h), pre[h])
                << site << " hart " << h;
    }
}

TEST_F(VirtStaleTest, HfenceFencesAreCostedIntoTheCall)
{
    // The same layout change with and without guests attached: the
    // virt-enabled call reports extra cycles for its guest fences and
    // accounts every remote fence as sent + acked.
    SmpParams sp;
    sp.harts = 4;
    sp.schedSeed = 21;
    SmpSystem plain(rocketParams(), sp);
    MonitorConfig config;
    config.scheme = IsolationScheme::Hpmp;
    SecureMonitor plainMon(plain, config);
    const MonitorResult base = plainMon.addGms(
        0, {kArenaBase, 4_MiB, Perm::rw(), GmsLabel::Fast});
    ASSERT_TRUE(base.ok);

    makeSmp(4);
    const MonitorResult virt = monitor->addGms(
        0, {kArenaBase, 4_MiB, Perm::rw(), GmsLabel::Fast});
    ASSERT_TRUE(virt.ok);

    EXPECT_GT(virt.cycles, base.cycles);
    EXPECT_EQ(monitor->stats().get("hfence_shootdowns"), 1u);
    EXPECT_EQ(monitor->stats().get("hfence_sent"), 3u);
    EXPECT_EQ(monitor->stats().get("hfence_acked"), 3u);
    EXPECT_EQ(monitor->stats().get("hfence_lost"), 0u);
}

TEST_F(VirtStaleTest, VirtChaosMatrixHasZeroPostAckStaleGrants)
{
    // The acceptance matrix: 8 seeds x {4, 8} harts, fault injection
    // armed, guests churning GPT/NPT leaves and hgatp roots on every
    // hart. stats.failed covers post-ack stale grants, rollback digest
    // mismatches, convergence and isolation invariants alike.
    uint64_t shootdowns = 0, probes = 0, virt_ops = 0;
    for (const unsigned harts : {4u, 8u}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            verify::CampaignConfig config;
            config.seed = seed;
            config.ops = 120;
            config.faultProb = 0.25;
            config.harts = harts;
            config.layer = verify::ChaosLayer::Virt;
            const verify::ChaosStats stats = verify::runChaos(config);
            EXPECT_FALSE(stats.failed) << stats.failure;
            shootdowns += stats.hfenceShootdowns;
            probes += stats.virtStaleProbes;
            virt_ops += stats.virtOps;
        }
    }
    EXPECT_GT(shootdowns, 0u);
    EXPECT_GT(probes, 0u);
    EXPECT_GT(virt_ops, 0u);
}

} // namespace
} // namespace hpmp
