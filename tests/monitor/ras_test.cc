/**
 * @file
 * RAS containment tests (DESIGN.md §15): memory poisoning surfacing
 * as typed machine checks at every consumer, and the monitor's
 * blast-radius contract in handleMachineCheck — contain a data-page
 * error to its owning domain, self-heal poisoned pmpte frames from
 * the authoritative layout, retire free frames in place, and degrade
 * the whole host (and nothing less) on monitor-private poison.
 */

#include <gtest/gtest.h>

#include <memory>

#include "base/fault_inject.h"
#include "base/frame_alloc.h"
#include "core/smp.h"
#include "hpmp/iopmp.h"
#include "mem/scrubber.h"
#include "migrate/checkpoint.h"
#include "monitor/invariants.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class RasTest : public ::testing::Test
{
  protected:
    ~RasTest() override { FaultInjector::instance().disable(); }

    void
    makeMonitor(IsolationScheme scheme)
    {
        smp = std::make_unique<SmpSystem>(rocketParams(), SmpParams{});
        machine = &smp->hart(0);
        MonitorConfig config;
        config.scheme = scheme;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        machine->setPriv(PrivMode::Supervisor);
        machine->setBare();
    }

    DomainId
    makeEnclave(Addr base, uint64_t size, GmsLabel label)
    {
        const DomainId id = monitor->createDomain();
        const MonitorResult r =
            monitor->addGms(id, {base, size, Perm::rw(), label});
        EXPECT_TRUE(r.ok) << r.error;
        return id;
    }

    std::unique_ptr<SmpSystem> smp;
    Machine *machine = nullptr; //!< hart 0 of smp
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(RasTest, DataPoisonIsContainedToTheOwningDomain)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId victim = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);
    const DomainId sibling = makeEnclave(4_GiB, 4_MiB, GmsLabel::Fast);

    const Addr line = 2_GiB + 0x40;
    machine->mem().poisonLine(line);

    // The poisoned line surfaces as a MachineCheck at the consumer,
    // never as data.
    ASSERT_TRUE(monitor->switchTo(victim).ok);
    const AccessOutcome acc = machine->access(line, AccessType::Load);
    EXPECT_EQ(acc.fault, Fault::MachineCheck);
    EXPECT_EQ(acc.poisonAddr & ~Addr(63), line & ~Addr(63));

    const auto mc = monitor->handleMachineCheck(acc.poisonAddr);
    ASSERT_TRUE(mc.ok) << mc.error;
    EXPECT_EQ(mc.value, RasOutcome::ContainedDomain);

    // Blast radius: exactly the owner died.
    EXPECT_FALSE(monitor->domainExists(victim));
    ASSERT_TRUE(monitor->domainExists(sibling));
    const auto report = monitor->attestDomain(sibling, 11);
    ASSERT_TRUE(report.ok);
    EXPECT_TRUE(monitor->attestor().verify(report.value, 11));
    EXPECT_TRUE(monitor->switchTo(sibling).ok);

    // The frame is retired: no region may cover it again.
    EXPECT_TRUE(monitor->pageQuarantined(line));
    EXPECT_EQ(monitor
                  ->addGms(sibling, {2_GiB, 4_MiB, Perm::rw(),
                                     GmsLabel::Slow})
                  .code,
              MonitorError::QuarantinedPage);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(RasTest, FreeFramePoisonQuarantinesInPlace)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);

    const Addr line = 5_GiB + 0x80;
    machine->mem().poisonLine(line);
    const auto mc = monitor->handleMachineCheck(line);
    ASSERT_TRUE(mc.ok) << mc.error;
    EXPECT_EQ(mc.value, RasOutcome::QuarantinedFree);
    EXPECT_TRUE(monitor->pageQuarantined(line));
    EXPECT_TRUE(monitor->domainExists(enclave)); // nobody died

    // Re-reporting a retired frame is an ok no-op.
    const uint64_t digest = monitor->stateDigest();
    const auto again = monitor->handleMachineCheck(line + 0x100);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.value, RasOutcome::AlreadyQuarantined);
    EXPECT_EQ(monitor->stateDigest(), digest);
}

TEST_F(RasTest, PmpteFramePoisonSelfHeals)
{
    makeMonitor(IsolationScheme::PmpTable);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Slow);

    const PmpTable *table = monitor->tablePeek(enclave);
    ASSERT_NE(table, nullptr);
    ASSERT_FALSE(table->tablePages().empty());
    const Addr oldRoot = table->rootPa();
    const Addr frame = table->tablePages().front();
    const auto pre = monitor->attestDomain(enclave, 9);
    ASSERT_TRUE(pre.ok);

    machine->mem().poisonLine(frame + 0x40);
    const auto mc = monitor->handleMachineCheck(frame + 0x40);
    ASSERT_TRUE(mc.ok) << mc.error;
    EXPECT_EQ(mc.value, RasOutcome::HealedTable);
    EXPECT_EQ(monitor->stats().get("ras.heals"), 1u);

    // The domain survived, on a rebuilt table with a fresh root; the
    // poisoned frame is retired; its measurement did not move.
    ASSERT_TRUE(monitor->domainExists(enclave));
    const PmpTable *healed = monitor->tablePeek(enclave);
    ASSERT_NE(healed, nullptr);
    EXPECT_NE(healed->rootPa(), oldRoot);
    EXPECT_FALSE(healed->isTablePage(frame));
    EXPECT_TRUE(monitor->pageQuarantined(frame));
    const auto post = monitor->attestDomain(enclave, 9);
    ASSERT_TRUE(post.ok);
    EXPECT_EQ(post.value.measurement, pre.value.measurement);
    EXPECT_TRUE(monitor->attestor().verify(post.value, 9));
    EXPECT_TRUE(monitor->switchTo(enclave).ok);
    EXPECT_EQ(checkIsolationInvariants(*monitor), "");
}

TEST_F(RasTest, FailedHealRollsBackBitIdentically)
{
    makeMonitor(IsolationScheme::PmpTable);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Slow);
    const Addr oldRoot = monitor->tablePeek(enclave)->rootPa();
    const Addr frame = monitor->tablePeek(enclave)->tablePages().front();
    machine->mem().poisonLine(frame + 0x40);

    FaultInjector &inj = FaultInjector::instance();
    inj.enable(1);
    inj.armNth("monitor.heal_table", 1);
    const uint64_t before = monitor->stateDigest();
    const auto mc = monitor->handleMachineCheck(frame + 0x40);
    EXPECT_FALSE(mc.ok);
    EXPECT_EQ(mc.code, MonitorError::InjectedFault);
    // Bit-identical rollback: root untouched, frame not retired.
    EXPECT_EQ(monitor->stateDigest(), before);
    EXPECT_EQ(monitor->tablePeek(enclave)->rootPa(), oldRoot);
    EXPECT_FALSE(monitor->pageQuarantined(frame));
    inj.disable();

    // The retried report heals cleanly.
    const auto retry = monitor->handleMachineCheck(frame + 0x40);
    ASSERT_TRUE(retry.ok) << retry.error;
    EXPECT_EQ(retry.value, RasOutcome::HealedTable);
    EXPECT_NE(monitor->tablePeek(enclave)->rootPa(), oldRoot);
}

TEST_F(RasTest, MonitorPoisonDegradesTheWholeHost)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);

    const Addr line = 100_MiB + 0x40; // monitor-private, not a table
    machine->mem().poisonLine(line);
    const auto mc = monitor->handleMachineCheck(line);
    ASSERT_TRUE(mc.ok) << mc.error;
    EXPECT_EQ(mc.value, RasOutcome::HostFatal);
    EXPECT_TRUE(monitor->rasFatal());

    // Every mutating call is now a typed RasFatal denial...
    EXPECT_EQ(monitor->switchTo(enclave).code, MonitorError::RasFatal);
    EXPECT_EQ(monitor
                  ->addGms(enclave, {6_GiB, 4_MiB, Perm::rw(),
                                     GmsLabel::Slow})
                  .code,
              MonitorError::RasFatal);
    EXPECT_EQ(monitor->destroyDomain(enclave).code,
              MonitorError::RasFatal);
    // ...including new machine-check reports...
    const auto later = monitor->handleMachineCheck(5_GiB);
    EXPECT_FALSE(later.ok);
    EXPECT_EQ(later.code, MonitorError::RasFatal);
    // ...while repeats of the retired frame and read-only calls stay up.
    const auto repeat = monitor->handleMachineCheck(line);
    ASSERT_TRUE(repeat.ok);
    EXPECT_EQ(repeat.value, RasOutcome::AlreadyQuarantined);
    const auto report = monitor->attestDomain(enclave, 3);
    ASSERT_TRUE(report.ok);
    EXPECT_TRUE(monitor->attestor().verify(report.value, 3));
    // Nothing below the TCB was destroyed.
    EXPECT_TRUE(monitor->domainExists(enclave));
}

TEST_F(RasTest, DestroyScrubsAndReleasesFrames)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);
    ASSERT_TRUE(monitor->switchTo(enclave).ok);
    for (Addr a = 2_GiB; a < 2_GiB + 4_MiB; a += kPageSize)
        machine->mem().write64(a, a ^ 0x5a5aULL);
    const size_t backedBefore = machine->mem().backedPages();
    ASSERT_GE(backedBefore, 4_MiB / kPageSize);

    ASSERT_TRUE(monitor->switchTo(0).ok);
    ASSERT_TRUE(monitor->destroyDomain(enclave).ok);

    // Teardown dropped the backing: the footprint shrinks by the
    // tenant's data pages (a few monitor bookkeeping pages may stay)
    // and a recycled frame reads as zeros, never as the dead
    // tenant's data.
    EXPECT_LE(machine->mem().backedPages() + 4_MiB / kPageSize,
              backedBefore + 8);
    EXPECT_EQ(machine->mem().read64(2_GiB), 0u);
    EXPECT_EQ(machine->mem().read64(2_GiB + 4_MiB - 8), 0u);

    const DomainId next = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);
    ASSERT_TRUE(monitor->switchTo(next).ok);
    const AccessOutcome acc = machine->access(2_GiB, AccessType::Load);
    EXPECT_EQ(acc.fault, Fault::None);
    EXPECT_EQ(machine->mem().read64(2_GiB), 0u);
}

TEST_F(RasTest, DmaBeatConsumesPoisonAsMachineCheck)
{
    PhysMem mem(16_GiB);
    MemoryHierarchy hier(rocketParams().hier);
    IopmpUnit iopmp(mem, 1);
    iopmp.master(0).programSegment(0, 4_GiB, 64_MiB, Perm::rw());
    DmaEngine dma(iopmp, hier, 0);

    const Addr src = 4_GiB + 8 * 1024;
    mem.poisonLine(src + 128);
    const auto result = dma.transfer(src, 4_GiB + 1_MiB, 4096);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.machineCheck);
    EXPECT_EQ(result.faultAddr & ~Addr(63), src + 128);

    // A clean transfer on the same engine still works.
    mem.clearPoisonLine(src + 128);
    const auto clean = dma.transfer(src, 4_GiB + 1_MiB, 4096);
    EXPECT_TRUE(clean.ok);
    EXPECT_FALSE(clean.machineCheck);
}

TEST_F(RasTest, CheckpointCaptureRefusesPoisonedPages)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);
    ASSERT_TRUE(monitor->suspendDomain(enclave).ok);

    machine->mem().poisonLine(2_GiB + 2_MiB);
    DomainCheckpoint cp;
    const std::string err =
        captureCheckpoint(*monitor, enclave, 1, cp);
    EXPECT_NE(err.find("machine check"), std::string::npos) << err;

    machine->mem().clearPoisonLine(2_GiB + 2_MiB);
    DomainCheckpoint clean;
    EXPECT_EQ(captureCheckpoint(*monitor, enclave, 1, clean), "");
}

TEST_F(RasTest, ScrubberPatrolFindsAndReportsPoison)
{
    makeMonitor(IsolationScheme::Hpmp);
    const DomainId enclave = makeEnclave(2_GiB, 4_MiB, GmsLabel::Fast);

    Scrubber scrub(machine->mem(), 2_GiB, 4_MiB, 64);
    scrub.setSkip(
        [&](Addr page) { return monitor->pageQuarantined(page); });
    unsigned reports = 0;
    scrub.setHandler([&](Addr page) {
        ++reports;
        const auto mc = monitor->handleMachineCheck(page);
        ASSERT_TRUE(mc.ok) << mc.error;
        EXPECT_EQ(mc.value, RasOutcome::ContainedDomain);
    });

    machine->mem().poisonLine(2_GiB + 1_MiB + 0x40);
    Addr found = 0;
    for (unsigned i = 0; i < 64 && found == 0; ++i) {
        if (const auto hit = scrub.step())
            found = *hit;
    }
    EXPECT_EQ(found, 2_GiB + 1_MiB);
    EXPECT_EQ(reports, 1u);
    EXPECT_EQ(scrub.detections(), 1u);
    EXPECT_FALSE(monitor->domainExists(enclave));
    EXPECT_TRUE(monitor->pageQuarantined(found));

    // The quarantined frame is skipped on later laps: one report only.
    for (unsigned i = 0; i < 64; ++i)
        scrub.step();
    EXPECT_EQ(reports, 1u);
}

} // namespace
} // namespace hpmp
