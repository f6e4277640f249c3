/**
 * @file
 * Hot-region hint tests (paper §9): carving a NAPOT slice of a GMS
 * into a fast segment, validation, and the registers-only cost
 * property of label changes (cache-based management).
 */

#include <gtest/gtest.h>

#include "core/smp.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class HintTest : public ::testing::Test
{
  protected:
    HintTest()
    {
        smp = std::make_unique<SmpSystem>(rocketParams(), SmpParams{});
        machine = &smp->hart(0);
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, config);
        EXPECT_TRUE(monitor
                        ->addGms(0, {2_GiB, 256_MiB, Perm::rwx(),
                                     GmsLabel::Slow})
                        .ok);
        EXPECT_TRUE(monitor->switchTo(0).ok);
        machine->setPriv(PrivMode::Supervisor);
    }

    std::unique_ptr<SmpSystem> smp;
    Machine *machine = nullptr; //!< hart 0 of smp
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(HintTest, CarvesFastRegionOutOfSlowGms)
{
    AccessOutcome before;
    ASSERT_EQ(machine->checkPhys(2_GiB + 1_MiB, AccessType::Load,
                                 before),
              Fault::None);
    EXPECT_GT(before.pmptRefs, 0u); // slow: via the table

    ASSERT_TRUE(monitor->hintHotRegion(0, 2_GiB + 1_MiB, 1_MiB).ok);

    AccessOutcome hot, cold;
    EXPECT_EQ(machine->checkPhys(2_GiB + 1_MiB, AccessType::Load, hot),
              Fault::None);
    EXPECT_EQ(hot.pmptRefs, 0u); // now behind a segment
    // Outside the hot slice: still table-checked, still accessible.
    EXPECT_EQ(machine->checkPhys(2_GiB + 8_MiB, AccessType::Load, cold),
              Fault::None);
    EXPECT_GT(cold.pmptRefs, 0u);

    // The GMS list now holds the split pieces covering the original
    // range exactly.
    uint64_t covered = 0;
    for (const Gms &gms : monitor->gmsOf(0))
        covered += gms.size;
    EXPECT_EQ(covered, 256_MiB);
}

TEST_F(HintTest, RejectsNonNapotAndUncoveredRanges)
{
    EXPECT_FALSE(monitor->hintHotRegion(0, 2_GiB + 1_MiB, 3_MiB).ok);
    EXPECT_FALSE(monitor->hintHotRegion(0, 2_GiB + 512_KiB, 1_MiB).ok);
    EXPECT_FALSE(monitor->hintHotRegion(0, 8_GiB, 1_MiB).ok);
}

TEST_F(HintTest, WholeGmsHintIsJustALabelChange)
{
    const DomainId id = monitor->createDomain();
    ASSERT_TRUE(monitor
                    ->addGms(id, {8_GiB, 16_MiB, Perm::rw(),
                                  GmsLabel::Slow})
                    .ok);
    ASSERT_TRUE(monitor->hintHotRegion(id, 8_GiB, 16_MiB).ok);
    ASSERT_EQ(monitor->gmsOf(id).size(), 1u);
    EXPECT_EQ(monitor->gmsOf(id)[0].label, GmsLabel::Fast);
}

TEST_F(HintTest, HintCostIsRegistersOnly)
{
    // Cache-based management: a hint on the *current* domain must not
    // write any pmptes (permissions unchanged), only registers.
    auto &table_writes_probe = *monitor; // readability
    (void)table_writes_probe;
    const auto res = monitor->hintHotRegion(0, 2_GiB + 32_MiB, 1_MiB);
    ASSERT_TRUE(res.ok);
    // Trap + a few CSR writes + flush: well under one table rewrite.
    EXPECT_LT(res.cycles, 1000u);
}

TEST_F(HintTest, PreservesIsolationAgainstOtherDomains)
{
    // Carving a hot region must not expose it to another domain.
    const DomainId other = monitor->createDomain();
    ASSERT_TRUE(monitor
                    ->addGms(other, {8_GiB, 16_MiB, Perm::rw(),
                                     GmsLabel::Slow})
                    .ok);
    ASSERT_TRUE(monitor->hintHotRegion(0, 2_GiB + 64_MiB, 1_MiB).ok);
    ASSERT_TRUE(monitor->switchTo(other).ok);
    AccessOutcome out;
    EXPECT_EQ(machine->checkPhys(2_GiB + 64_MiB, AccessType::Load, out),
              Fault::LoadAccessFault);
}

} // namespace
} // namespace hpmp
