/**
 * @file
 * Inter-enclave shared memory and attestation tests.
 */

#include <gtest/gtest.h>

#include "core/smp.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class ShareTest : public ::testing::Test
{
  protected:
    ShareTest()
    {
        smp = std::make_unique<SmpSystem>(rocketParams(), SmpParams{});
        machine = &smp->hart(0);
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        a = monitor->createDomain();
        b = monitor->createDomain();
        EXPECT_TRUE(monitor
                        ->addGms(a, {4_GiB, 64_MiB, Perm::rwx(),
                                     GmsLabel::Slow})
                        .ok);
        EXPECT_TRUE(monitor
                        ->addGms(b, {6_GiB, 64_MiB, Perm::rwx(),
                                     GmsLabel::Slow})
                        .ok);
        machine->setPriv(PrivMode::Supervisor);
    }

    Fault
    probe(Addr pa, AccessType type)
    {
        AccessOutcome out;
        return machine->checkPhys(pa, type, out);
    }

    std::unique_ptr<SmpSystem> smp;
    Machine *machine = nullptr; //!< hart 0 of smp
    std::unique_ptr<SecureMonitor> monitor;
    DomainId a = 0, b = 0;
};

TEST_F(ShareTest, SharedRegionVisibleToBothDomains)
{
    ASSERT_TRUE(monitor->shareGms(a, 4_GiB, b, Perm::rw()).ok);

    ASSERT_TRUE(monitor->switchTo(a).ok);
    EXPECT_EQ(probe(4_GiB, AccessType::Load), Fault::None);

    ASSERT_TRUE(monitor->switchTo(b).ok);
    EXPECT_EQ(probe(4_GiB, AccessType::Load), Fault::None);
    EXPECT_EQ(probe(4_GiB, AccessType::Store), Fault::None);
}

TEST_F(ShareTest, SharedPermCannotExceedOwner)
{
    ASSERT_TRUE(monitor->setPerm(a, 4_GiB, Perm::ro()).ok);
    EXPECT_FALSE(monitor->shareGms(a, 4_GiB, b, Perm::rw()).ok);
    EXPECT_TRUE(monitor->shareGms(a, 4_GiB, b, Perm::ro()).ok);

    ASSERT_TRUE(monitor->switchTo(b).ok);
    EXPECT_EQ(probe(4_GiB, AccessType::Load), Fault::None);
    EXPECT_EQ(probe(4_GiB, AccessType::Store),
              Fault::StoreAccessFault);
}

TEST_F(ShareTest, RevokeRemovesPeerAccess)
{
    ASSERT_TRUE(monitor->shareGms(a, 4_GiB, b, Perm::rw()).ok);
    ASSERT_TRUE(monitor->switchTo(b).ok);
    ASSERT_EQ(probe(4_GiB, AccessType::Load), Fault::None);

    ASSERT_TRUE(monitor->removeGms(b, 4_GiB).ok);
    EXPECT_EQ(probe(4_GiB, AccessType::Load), Fault::LoadAccessFault);

    // The owner keeps its access.
    ASSERT_TRUE(monitor->switchTo(a).ok);
    EXPECT_EQ(probe(4_GiB, AccessType::Load), Fault::None);
}

TEST_F(ShareTest, ShareValidation)
{
    EXPECT_FALSE(monitor->shareGms(a, 4_GiB, a, Perm::ro()).ok);
    EXPECT_FALSE(monitor->shareGms(a, 5_GiB, b, Perm::ro()).ok);
    // Peer already mapping an overlapping region.
    ASSERT_TRUE(monitor
                    ->addGms(b, {4_GiB + 64_MiB, 64_MiB, Perm::rw(),
                                 GmsLabel::Slow})
                    .ok);
    ASSERT_TRUE(monitor->shareGms(a, 4_GiB, b, Perm::ro()).ok);
    EXPECT_FALSE(monitor->shareGms(a, 4_GiB, b, Perm::ro()).ok);
}

TEST_F(ShareTest, FunctionalDataFlowsThroughSharedRegion)
{
    ASSERT_TRUE(monitor->shareGms(a, 4_GiB, b, Perm::rw()).ok);
    // Producer (domain a) writes...
    ASSERT_TRUE(monitor->switchTo(a).ok);
    machine->mem().write64(4_GiB + 0x100, 0xfeedface);
    // ...consumer (domain b) reads the same bytes.
    ASSERT_TRUE(monitor->switchTo(b).ok);
    ASSERT_EQ(probe(4_GiB + 0x100, AccessType::Load), Fault::None);
    EXPECT_EQ(machine->mem().read64(4_GiB + 0x100), 0xfeedfaceu);
}

TEST_F(ShareTest, AttestationRoundTrip)
{
    machine->mem().write64(4_GiB + 8, 0x1234);
    const uint64_t nonce = 77;
    const auto attested = monitor->attestDomain(a, nonce);
    ASSERT_TRUE(attested.ok);
    const AttestationReport report = attested.value;
    EXPECT_TRUE(monitor->attestor().verify(report, nonce));
    EXPECT_FALSE(monitor->attestor().verify(report, nonce + 1));

    // Tampering with the measured memory changes the measurement.
    machine->mem().write64(4_GiB + 8, 0x9999);
    const auto after = monitor->attestDomain(a, nonce);
    ASSERT_TRUE(after.ok);
    EXPECT_NE(after.value.measurement, report.measurement);

    // A forged report with a doctored measurement fails verification.
    AttestationReport forged = report;
    forged.measurement ^= 1;
    EXPECT_FALSE(monitor->attestor().verify(forged, nonce));

    // A bad domain id is a typed error, not a panic.
    const auto bad = monitor->attestDomain(999, nonce);
    ASSERT_FALSE(bad.ok);
    EXPECT_EQ(bad.code, MonitorError::NoSuchDomain);
}

TEST_F(ShareTest, MeasurementIdentifiesContentNotDomain)
{
    // Two domains with identical content measure identically.
    const DomainId c = monitor->createDomain();
    ASSERT_TRUE(monitor
                    ->addGms(c, {8_GiB, 64_MiB, Perm::rwx(),
                                 GmsLabel::Slow})
                    .ok);
    // a's region and c's region are both all-zero now.
    EXPECT_EQ(monitor->measureDomain(a).value,
              monitor->measureDomain(c).value);
    machine->mem().write64(8_GiB, 5);
    EXPECT_NE(monitor->measureDomain(a).value,
              monitor->measureDomain(c).value);

    // Measuring a destroyed domain fails typed.
    ASSERT_TRUE(monitor->destroyDomain(c).ok);
    const auto gone = monitor->measureDomain(c);
    ASSERT_FALSE(gone.ok);
    EXPECT_EQ(gone.code, MonitorError::NoSuchDomain);
}

} // namespace
} // namespace hpmp
