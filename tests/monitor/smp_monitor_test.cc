/**
 * @file
 * Multi-hart secure-monitor tests (DESIGN.md §9): IPI shootdowns
 * converge every hart to the canonical register file and are costed
 * into the call, lost IPIs fail closed with a per-hart digest-identical
 * rollback, nested calls bounce off the global monitor lock without
 * touching state, a single-hart monitor keeps the pinned per-op
 * results of the retired plain-Machine monitor, and applyLayout
 * reprograms only the entries that changed.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <vector>

#include "base/fault_inject.h"
#include "core/smp.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class SmpMonitorTest : public ::testing::Test
{
  protected:
    ~SmpMonitorTest() override { FaultInjector::instance().disable(); }

    void
    makeSmp(IsolationScheme scheme, unsigned harts, uint64_t seed = 7)
    {
        SmpParams sp;
        sp.harts = harts;
        sp.schedSeed = seed;
        smp = std::make_unique<SmpSystem>(rocketParams(), sp);
        MonitorConfig config;
        config.scheme = scheme;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        for (unsigned h = 0; h < harts; ++h) {
            smp->hart(h).setPriv(PrivMode::Supervisor);
            smp->hart(h).setBare();
        }
    }

    std::vector<uint64_t>
    hartDigests() const
    {
        std::vector<uint64_t> d;
        for (unsigned h = 0; h < smp->numHarts(); ++h)
            d.push_back(monitor->hartStateDigest(h));
        return d;
    }

    std::unique_ptr<SmpSystem> smp;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(SmpMonitorTest, ShootdownConvergesEveryHart)
{
    makeSmp(IsolationScheme::Hpmp, 4);
    const MonitorResult r =
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast});
    ASSERT_TRUE(r.ok) << r.error;

    // Every sibling's register file grants the new region: the
    // shootdown synced them to the canonical unit.
    for (unsigned h = 0; h < 4; ++h) {
        EXPECT_TRUE(smp->hart(h).hpmp().probe(2_GiB).allows(
            AccessType::Store))
            << "hart " << h;
    }
    const std::vector<uint64_t> digests = hartDigests();
    for (unsigned h = 1; h < 4; ++h)
        EXPECT_EQ(digests[h], digests[0]) << "hart " << h;

    const uint64_t shootdowns = monitor->stats().get("ipi_shootdowns");
    EXPECT_GE(shootdowns, 1u);
    EXPECT_EQ(monitor->stats().get("ipi_sent"), 3 * shootdowns);
    EXPECT_EQ(monitor->stats().get("ipi_acked"), 3 * shootdowns);
    EXPECT_EQ(monitor->stats().get("ipi_lost"), 0u);
}

TEST_F(SmpMonitorTest, IpiCostIsChargedToTheCall)
{
    // The same op on 1 vs 4 harts: the cycle difference is exactly the
    // IPI cost the monitor sampled into the ipi_cycles distribution.
    makeSmp(IsolationScheme::Hpmp, 1);
    const MonitorResult solo =
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast});
    ASSERT_TRUE(solo.ok);
    EXPECT_EQ(monitor->stats().get("ipi_shootdowns"), 0u);

    makeSmp(IsolationScheme::Hpmp, 4);
    const MonitorResult quad =
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast});
    ASSERT_TRUE(quad.ok);

    ASSERT_GT(quad.cycles, solo.cycles);
    const Distribution *ipi =
        monitor->stats().getDist("ipi_cycles");
    ASSERT_NE(ipi, nullptr);
    EXPECT_EQ(ipi->count(), 1u);
    EXPECT_EQ(quad.cycles - solo.cycles, ipi->sum());
    // At least the modelled per-hart delivery+ack+fence round trips.
    const MonitorCosts costs; // defaults, as used by the fixture
    EXPECT_GE(quad.cycles - solo.cycles,
              3ull * (costs.ipiAckCycles + costs.remoteFenceCycles));
}

TEST_F(SmpMonitorTest, LostIpiFailsClosedAndRollsBackEveryHart)
{
    for (const char *site : {"smp.ipi_deliver", "smp.ipi_ack"}) {
        makeSmp(IsolationScheme::Hpmp, 4);
        ASSERT_TRUE(monitor
                        ->addGms(0, {2_GiB, 4_MiB, Perm::rw(),
                                     GmsLabel::Fast})
                        .ok);
        const std::vector<uint64_t> before = hartDigests();

        FaultInjector::instance().enable(1);
        FaultInjector::instance().armNth(site, 1);
        const MonitorResult r = monitor->setPerm(0, 2_GiB, Perm::ro());
        FaultInjector::instance().disable();

        EXPECT_FALSE(r.ok) << site;
        EXPECT_EQ(r.code, MonitorError::InjectedFault) << site;
        EXPECT_GE(monitor->stats().get("ipi_lost"), 1u) << site;

        // Cross-hart rollback contract: every hart is bit-identical to
        // its own pre-call state, and still grants the old (rw)
        // permission — the half-applied narrowing never leaked.
        EXPECT_EQ(hartDigests(), before) << site;
        for (unsigned h = 0; h < 4; ++h) {
            EXPECT_TRUE(smp->hart(h).hpmp().probe(2_GiB).allows(
                AccessType::Store))
                << site << " hart " << h;
        }
    }
}

TEST_F(SmpMonitorTest, LostIpiNeverLeaksAHalfGrantedRegion)
{
    // The grant direction: a *new* GMS whose shootdown dies must leave
    // every hart still denying the region (fail closed).
    makeSmp(IsolationScheme::Hpmp, 4);
    FaultInjector::instance().enable(1);
    FaultInjector::instance().armNth("smp.ipi_deliver", 1);
    const MonitorResult r =
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast});
    FaultInjector::instance().disable();

    ASSERT_FALSE(r.ok);
    for (unsigned h = 0; h < 4; ++h) {
        EXPECT_FALSE(smp->hart(h).hpmp().probe(2_GiB).allows(
            AccessType::Load))
            << "hart " << h;
    }
}

TEST_F(SmpMonitorTest, NestedCallBouncesOffTheMonitorLock)
{
    makeSmp(IsolationScheme::Hpmp, 4);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast})
            .ok);
    const std::vector<uint64_t> before = hartDigests();

    // Hart 2 holds the lock (as if mid-transaction); hart 0's call
    // must bounce with a typed error and zero state change.
    ASSERT_TRUE(smp->tryAcquireMonitorLock(2));
    const MonitorResult r = monitor->setPerm(0, 2_GiB, Perm::ro());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.code, MonitorError::LockContended);
    EXPECT_EQ(hartDigests(), before);
    smp->releaseMonitorLock(2);

    EXPECT_TRUE(monitor->setPerm(0, 2_GiB, Perm::ro()).ok);
}

TEST_F(SmpMonitorTest, SingleHartMonitorMatchesPinnedMachineMonitor)
{
    // Per-op results and final digests recorded from the plain-Machine
    // monitor: a one-hart system must keep every cycle and every bit
    // of state that monitor produced.
    struct Op
    {
        bool ok;
        uint64_t cycles;
    };
    struct Golden
    {
        IsolationScheme scheme;
        Op ops[8];
        uint64_t digest;
    };
    const Golden goldens[] = {
        {IsolationScheme::Pmp,
         {{true, 412}, {true, 380}, {true, 412}, {true, 408},
          {false, 0}, {true, 408}, {false, 0}, {true, 380}},
         0xdbfb7cc1caf35effULL},
        {IsolationScheme::PmpTable,
         {{true, 1706}, {true, 1030}, {true, 408}, {true, 724},
          {true, 404}, {true, 408}, {true, 390}, {true, 380}},
         0x41ef0f7e9f2b1a64ULL},
        {IsolationScheme::Hpmp,
         {{true, 1714}, {true, 1030}, {true, 416}, {true, 728},
          {true, 428}, {true, 428}, {true, 390}, {true, 380}},
         0x5bdffb878d614ab2ULL},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE(toString(g.scheme));
        makeSmp(g.scheme, 1);
        SecureMonitor &m = *monitor;
        std::vector<MonitorResult> rs;
        rs.push_back(
            m.addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast}));
        const DomainId e = m.createDomain();
        rs.push_back(
            m.addGms(e, {4_GiB, 2_MiB, Perm::rwx(), GmsLabel::Fast}));
        rs.push_back(m.switchTo(e));
        rs.push_back(m.setPerm(e, 4_GiB, Perm::rw()));
        rs.push_back(m.hintHotRegion(e, 4_GiB + 64_KiB, 4_KiB));
        rs.push_back(m.switchTo(0));
        rs.push_back(m.removeGms(e, 4_GiB + 64_KiB));
        rs.push_back(m.destroyDomain(e));
        ASSERT_EQ(rs.size(), std::size(g.ops));
        for (size_t i = 0; i < rs.size(); ++i) {
            EXPECT_EQ(rs[i].ok, g.ops[i].ok) << "op " << i;
            EXPECT_EQ(rs[i].cycles, g.ops[i].cycles) << "op " << i;
            EXPECT_FALSE(rs[i].degraded) << "op " << i;
        }
        EXPECT_EQ(m.stateDigest(), g.digest);
        EXPECT_EQ(m.stats().get("ipi_shootdowns"), 0u);
        EXPECT_EQ(m.stats().get("ipi_sent"), 0u);
    }
}

TEST_F(SmpMonitorTest, ApplyLayoutReprogramsOnlyTheDiff)
{
    // Satellite: applyLayout composes the desired register image and
    // diffs it against the live entries, so a switch between two
    // steady-state domains rewrites ~2 entries, and re-applying the
    // current domain's layout writes nothing.
    makeSmp(IsolationScheme::Hpmp, 1);
    Machine &m = smp->hart(0);
    ASSERT_TRUE(
        monitor->addGms(0, {2_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast})
            .ok);
    const DomainId e = monitor->createDomain();
    ASSERT_TRUE(
        monitor->addGms(e, {4_GiB, 4_MiB, Perm::rw(), GmsLabel::Fast})
            .ok);

    // Warm up: both layouts have been applied at least once.
    ASSERT_TRUE(monitor->switchTo(e).ok);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    uint64_t base = m.hpmp().csrWrites();
    ASSERT_TRUE(monitor->switchTo(e).ok);
    const uint64_t toEnclave = m.hpmp().csrWrites() - base;
    EXPECT_GT(toEnclave, 0u);
    EXPECT_LE(toEnclave, 4u); // the two domains differ in ~1 GMS entry

    base = m.hpmp().csrWrites();
    ASSERT_TRUE(monitor->switchTo(e).ok); // same domain: nothing to do
    EXPECT_EQ(m.hpmp().csrWrites() - base, 0u);

    base = m.hpmp().csrWrites();
    ASSERT_TRUE(monitor->switchTo(0).ok);
    EXPECT_EQ(m.hpmp().csrWrites() - base, toEnclave); // symmetric diff
}

} // namespace
} // namespace hpmp
