/**
 * @file
 * Fleet-serving lifecycle tests (DESIGN.md §11): generation-tagged id
 * recycling denies stale tenant handles with a typed error, the
 * sharded domain registry stays at exactly one probe per lookup at
 * 10k domains, a fault inside a coalesced shootdown window rolls back
 * every hart bit-identically, the same-domain re-switch elides the
 * shootdown (and the guest fences with it), a coalesced window posts
 * exactly one IPI per sibling even when delivery is retried, and the
 * 8-seed x {4,8}-hart fleet chaos matrix runs with zero post-ack
 * stale grants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/fault_inject.h"
#include "core/smp.h"
#include "monitor/domain_registry.h"
#include "monitor/secure_monitor.h"
#include "verify/chaos_engine.h"

namespace hpmp
{
namespace
{

class FleetMonitorTest : public ::testing::Test
{
  protected:
    ~FleetMonitorTest() override { FaultInjector::instance().disable(); }

    void
    makeSmp(unsigned harts, bool virt = false)
    {
        SmpParams sp;
        sp.harts = harts;
        sp.schedSeed = 11;
        smp = std::make_unique<SmpSystem>(rocketParams(), sp);
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        for (unsigned h = 0; h < harts; ++h) {
            smp->hart(h).setPriv(PrivMode::Supervisor);
            smp->hart(h).setBare();
        }
        if (virt)
            smp->enableVirt();
    }

    std::unique_ptr<SmpSystem> smp;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(FleetMonitorTest, RecycledIdIsDeniedStale)
{
    makeSmp(2);
    const DomainId first = monitor->createDomain();
    ASSERT_TRUE(monitor->destroyDomain(first).ok);

    // Destroyed but not yet recycled: a plain unknown id, not stale.
    MonitorResult r = monitor->switchTo(first);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, MonitorError::NoSuchDomain);

    // The next create recycles the slot under a bumped generation: the
    // numeric index repeats, the DomainId does not.
    const DomainId second = monitor->createDomain();
    EXPECT_NE(second, first);
    EXPECT_EQ(domain_id::index(second), domain_id::index(first));
    EXPECT_EQ(domain_id::generation(second),
              domain_id::generation(first) + 1);

    // The old handle must now be denied as *stale* — honouring it
    // would alias the new tenant occupying the slot.
    r = monitor->switchTo(first);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, MonitorError::StaleHandle);
    EXPECT_FALSE(monitor->domainExists(first));
    EXPECT_TRUE(monitor->domainExists(second));
    EXPECT_GE(monitor->stats().get("registry_stale_denied"), 1u);
}

TEST_F(FleetMonitorTest, TenantChurnDoesNotLeakBackedPages)
{
    makeSmp(2);
    // One tenant lifecycle: create, register, dirty every page, destroy.
    auto lifecycle = [&] {
        const DomainId d = monitor->createDomain();
        ASSERT_TRUE(monitor
                        ->addGms(d, {2_GiB, 1_MiB, Perm::rw(),
                                     GmsLabel::Fast})
                        .ok);
        for (Addr a = 2_GiB; a < 2_GiB + 1_MiB; a += kPageSize)
            smp->mem().write64(a, a);
        const size_t dirty = smp->mem().backedPages();
        ASSERT_TRUE(monitor->destroyDomain(d).ok);
        // Teardown released the tenant's data pages: the footprint
        // shrinks instead of accumulating dead frames.
        EXPECT_LE(smp->mem().backedPages() + 1_MiB / kPageSize,
                  dirty + 8);
    };
    lifecycle(); // warm up monitor bookkeeping pages
    const size_t baseline = smp->mem().backedPages();
    for (unsigned i = 0; i < 8; ++i)
        lifecycle();
    // Churn is footprint-neutral: eight more lifecycles did not grow
    // the backing beyond the post-warm-up baseline.
    EXPECT_LE(smp->mem().backedPages(), baseline + 8);
    EXPECT_EQ(smp->mem().read64(2_GiB), 0u); // scrubbed, not leaked
}

TEST(DomainRegistry10k, LookupsAreExactlyOneProbe)
{
    DomainRegistry<int> reg;
    std::vector<DomainId> ids;
    for (int i = 0; i < 10000; ++i) {
        const DomainId id = reg.create();
        *reg.find(id) = i;
        ids.push_back(id);
    }
    ASSERT_EQ(reg.live(), 10000u);

    const uint64_t lookups_before = reg.lookups();
    for (size_t i = 0; i < ids.size(); ++i) {
        const int *v = reg.find(ids[i]);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, int(i));
    }
    // The O(1) contract, counter-asserted: one probe per lookup at 10k
    // live domains — no chains, no rehash walks, no tree descent.
    EXPECT_EQ(reg.lookups() - lookups_before, 10000u);
    EXPECT_EQ(reg.probes(), reg.lookups());

    // Churn half the fleet and look everything up again: recycled ids
    // deny their predecessors, and the probe count still tracks 1:1.
    for (size_t i = 0; i < ids.size(); i += 2)
        reg.erase(ids[i]);
    std::vector<DomainId> recycled;
    for (size_t i = 0; i < ids.size() / 2; ++i)
        recycled.push_back(reg.create());
    EXPECT_EQ(reg.recycles(), recycled.size());
    for (size_t i = 0; i < ids.size(); i += 2) {
        EXPECT_EQ(reg.find(ids[i]), nullptr);
        EXPECT_TRUE(reg.stale(ids[i]));
    }
    EXPECT_EQ(reg.probes(), reg.lookups());
    EXPECT_GE(reg.staleDenied(), ids.size() / 2);
}

TEST_F(FleetMonitorTest, CoalescedFaultRollsBackEveryHartBitIdentically)
{
    makeSmp(4);
    const DomainId a = monitor->createDomain();
    const DomainId b = monitor->createDomain();
    ASSERT_TRUE(
        monitor->addGms(a, {4_GiB, 16_KiB, Perm::rwx(), GmsLabel::Fast})
            .ok);
    ASSERT_TRUE(monitor
                    ->addGms(b, {4_GiB + 16_KiB, 16_KiB, Perm::rwx(),
                                 GmsLabel::Fast})
                    .ok);

    monitor->beginCoalescedWindow();
    smp->setCurrentHart(1);
    ASSERT_TRUE(monitor->switchTo(a).ok);
    ASSERT_EQ(monitor->pendingCoalescedCommits(), 1u);

    // Mid-epoch, with one commit already deferred: a fault inside the
    // next call must leave each hart's full state — CSR-write counters
    // included — exactly as it was, not "converged" to anything.
    std::vector<uint64_t> pre;
    for (unsigned h = 0; h < 4; ++h)
        pre.push_back(monitor->hartStateDigest(h));

    smp->setCurrentHart(2);
    FaultInjector::instance().enable(3);
    FaultInjector::instance().armNth("monitor.switch", 1);
    const MonitorResult r = monitor->switchTo(b);
    FaultInjector::instance().disable();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, MonitorError::InjectedFault);
    for (unsigned h = 0; h < 4; ++h)
        EXPECT_EQ(monitor->hartStateDigest(h), pre[h]) << "hart " << h;

    // The earlier commit is still pending; the flush fences everyone
    // to the surviving state and the harts converge (register
    // contents, not per-hart write counters — siblings applied one
    // net diff where hart 1 paid per-commit diffs).
    EXPECT_EQ(monitor->pendingCoalescedCommits(), 1u);
    EXPECT_GT(monitor->endCoalescedWindow(), 0u);
    EXPECT_EQ(monitor->currentDomain(), a);
    const uint64_t d0 = monitor->hartStateDigest(0, true, false);
    for (unsigned h = 1; h < 4; ++h)
        EXPECT_EQ(monitor->hartStateDigest(h, true, false), d0)
            << "hart " << h;
}

TEST_F(FleetMonitorTest, ReswitchElidesShootdownAndGuestFences)
{
    makeSmp(2, /*virt=*/true);
    const DomainId d = monitor->createDomain();
    ASSERT_TRUE(
        monitor->addGms(d, {4_GiB, 16_KiB, Perm::rwx(), GmsLabel::Fast})
            .ok);
    ASSERT_TRUE(monitor->switchTo(d).ok);

    const uint64_t shootdowns = monitor->stats().get("ipi_shootdowns");
    const uint64_t hfences = monitor->stats().get("hfence_shootdowns");
    ASSERT_GE(shootdowns, 1u);

    // Same-domain re-switch: the layout diff is empty, so no sibling
    // holds anything stale — the IPI round and the guest fences are
    // both elided instead of fencing every hart for nothing.
    ASSERT_TRUE(monitor->switchTo(d).ok);
    EXPECT_EQ(monitor->stats().get("ipi_shootdowns"), shootdowns);
    EXPECT_EQ(monitor->stats().get("hfence_shootdowns"), hfences);
    EXPECT_GE(monitor->stats().get("ipi_elided"), 1u);
    EXPECT_GE(smp->stats().get("hfence_elided"), 1u);
}

TEST_F(FleetMonitorTest, CoalescedWindowPostsOncePerSiblingEvenOnRetry)
{
    makeSmp(4);
    const DomainId a = monitor->createDomain();
    ASSERT_TRUE(
        monitor->addGms(a, {4_GiB, 16_KiB, Perm::rwx(), GmsLabel::Fast})
            .ok);

    monitor->beginCoalescedWindow();
    smp->setCurrentHart(1);
    ASSERT_TRUE(monitor->switchTo(a).ok);
    smp->setCurrentHart(2);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    // A delivery fault inside the still-open window is re-posted with
    // bounded retries: the retry is accounted in ipi_retries only,
    // never as a second post — the ipi_post == windows x siblings
    // invariant is what lets operators spot IPI storms.
    FaultInjector::instance().enable(5);
    FaultInjector::instance().armNth("smp.ipi_deliver", 1);
    EXPECT_GT(monitor->endCoalescedWindow(), 0u);
    FaultInjector::instance().disable();

    const uint64_t windows = monitor->stats().get("coalesced_windows");
    EXPECT_EQ(windows, 1u);
    EXPECT_EQ(monitor->stats().get("ipi_post"),
              windows * (smp->numHarts() - 1));
    EXPECT_GE(monitor->stats().get("ipi_retries"), 1u);
    const Distribution *cpw =
        monitor->stats().getDist("commits_per_window");
    ASSERT_NE(cpw, nullptr);
    EXPECT_EQ(cpw->count(), 1u);
    EXPECT_EQ(cpw->sum(), 2u);
}

TEST(FleetChaosMatrix, ZeroPostAckStaleAcrossSeedsAndHarts)
{
    // The acceptance matrix: 8 seeds x {4, 8} harts of fleet-serving
    // chaos — coalesced epochs, churn, stale probes, re-switches —
    // with faults armed throughout. Coalescing must never widen a
    // stale-translation window: zero post-ack grants, everywhere.
    uint64_t epochs = 0, windows = 0, stale_probes = 0, churns = 0;
    for (const unsigned harts : {4u, 8u}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            verify::CampaignConfig config;
            config.seed = seed;
            config.ops = 250;
            config.harts = harts;
            config.layer = verify::ChaosLayer::Fleet;
            const verify::ChaosStats stats = verify::runChaos(config);
            EXPECT_FALSE(stats.failed)
                << "seed " << seed << " harts " << harts << ": "
                << stats.failure;
            EXPECT_EQ(stats.postAckViolations, 0u)
                << "seed " << seed << " harts " << harts;
            epochs += stats.fleetEpochs;
            windows += stats.coalescedWindows;
            stale_probes += stats.fleetStaleProbes;
            churns += stats.fleetChurns;
        }
    }
    // The matrix exercised what it claims to cover.
    EXPECT_GT(epochs, 20u);
    EXPECT_GT(windows, 20u);
    EXPECT_GT(stale_probes, 10u);
    EXPECT_GT(churns, 20u);
}

} // namespace
} // namespace hpmp
