/**
 * @file
 * Secure-monitor tests: GMS validation, scheme layouts, cache-based
 * entry management, domain lifecycle and scalability limits.
 */

#include <gtest/gtest.h>

#include "monitor/secure_monitor.h"

namespace hpmp
{
namespace
{

class MonitorTest : public ::testing::TestWithParam<IsolationScheme>
{
  protected:
    void
    SetUp() override
    {
        machine = std::make_unique<Machine>(rocketParams());
        MonitorConfig config;
        config.scheme = GetParam();
        monitor = std::make_unique<SecureMonitor>(*machine, config);
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_P(MonitorTest, HostIsDomainZero)
{
    EXPECT_EQ(monitor->currentDomain(), 0u);
    EXPECT_EQ(monitor->domainCount(), 1u);
}

TEST_P(MonitorTest, GmsValidation)
{
    // Page granularity enforced.
    EXPECT_FALSE(monitor->addGms(0, {1_GiB + 7, 4096, Perm::rw(),
                                     GmsLabel::Slow}).ok);
    // Overlap with the monitor region rejected.
    EXPECT_FALSE(monitor->addGms(0, {64_MiB, 128_MiB, Perm::rw(),
                                     GmsLabel::Slow}).ok);
    // Valid region accepted.
    EXPECT_TRUE(monitor->addGms(0, {2_GiB, 256_MiB, Perm::rwx(),
                                    GmsLabel::Fast}).ok);
    // Cross-domain overlap rejected.
    const DomainId enclave = monitor->createDomain();
    EXPECT_FALSE(monitor->addGms(enclave, {2_GiB + 4_MiB, 4_MiB,
                                           Perm::rw(),
                                           GmsLabel::Slow}).ok);
}

TEST_P(MonitorTest, IsolationEnforcedOnSwitch)
{
    ASSERT_TRUE(monitor->addGms(0, {2_GiB, 256_MiB, Perm::rwx(),
                                    GmsLabel::Fast}).ok);
    const DomainId enclave = monitor->createDomain();
    ASSERT_TRUE(monitor->addGms(enclave, {4_GiB, 256_MiB, Perm::rwx(),
                                          GmsLabel::Fast}).ok);

    ASSERT_TRUE(monitor->switchTo(0).ok);
    machine->setPriv(PrivMode::Supervisor);
    machine->setBare();

    // Host sees its memory, not the enclave's.
    AccessOutcome out;
    EXPECT_EQ(machine->checkPhys(2_GiB, AccessType::Load, out),
              Fault::None);
    EXPECT_EQ(machine->checkPhys(4_GiB, AccessType::Load, out),
              Fault::LoadAccessFault);
    // Monitor memory is never accessible.
    EXPECT_EQ(machine->checkPhys(0, AccessType::Load, out),
              Fault::LoadAccessFault);

    ASSERT_TRUE(monitor->switchTo(enclave).ok);
    EXPECT_EQ(machine->checkPhys(4_GiB, AccessType::Load, out),
              Fault::None);
    EXPECT_EQ(machine->checkPhys(2_GiB, AccessType::Load, out),
              Fault::LoadAccessFault);
}

TEST_P(MonitorTest, RemoveGmsRevokesAccess)
{
    ASSERT_TRUE(monitor->addGms(0, {2_GiB, 256_MiB, Perm::rwx(),
                                    GmsLabel::Fast}).ok);
    ASSERT_TRUE(monitor->switchTo(0).ok);
    ASSERT_TRUE(monitor->removeGms(0, 2_GiB).ok);
    AccessOutcome out;
    EXPECT_EQ(machine->checkPhys(2_GiB, AccessType::Load, out),
              Fault::LoadAccessFault);
}

TEST_P(MonitorTest, SetPermTakesEffect)
{
    ASSERT_TRUE(monitor->addGms(0, {2_GiB, 256_MiB, Perm::rwx(),
                                    GmsLabel::Fast}).ok);
    ASSERT_TRUE(monitor->switchTo(0).ok);
    ASSERT_TRUE(monitor->setPerm(0, 2_GiB, Perm::ro()).ok);
    AccessOutcome out;
    EXPECT_EQ(machine->checkPhys(2_GiB, AccessType::Load, out),
              Fault::None);
    EXPECT_EQ(machine->checkPhys(2_GiB, AccessType::Store, out),
              Fault::StoreAccessFault);
}

TEST_P(MonitorTest, DestroyDomainDropsIt)
{
    const DomainId enclave = monitor->createDomain();
    ASSERT_TRUE(monitor->addGms(enclave, {4_GiB, 64_MiB, Perm::rwx(),
                                          GmsLabel::Slow}).ok);
    ASSERT_TRUE(monitor->switchTo(enclave).ok);
    ASSERT_TRUE(monitor->destroyDomain(enclave).ok);
    EXPECT_EQ(monitor->currentDomain(), 0u);
    EXPECT_FALSE(monitor->destroyDomain(enclave).ok);
    EXPECT_FALSE(monitor->destroyDomain(0).ok);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MonitorTest,
    ::testing::Values(IsolationScheme::Pmp, IsolationScheme::PmpTable,
                      IsolationScheme::Hpmp),
    [](const ::testing::TestParamInfo<IsolationScheme> &param_info) {
        return std::string(toString(param_info.param));
    });

TEST(MonitorScalability, PmpRunsOutOfEntriesButHpmpDoesNot)
{
    // Penglai-PMP supports only ~a dozen regions; Penglai-HPMP
    // supports >100 (Fig. 14-a/b).
    for (const IsolationScheme scheme :
         {IsolationScheme::Pmp, IsolationScheme::Hpmp}) {
        Machine machine(rocketParams());
        MonitorConfig config;
        config.scheme = scheme;
        SecureMonitor monitor(machine, config);
        ASSERT_TRUE(monitor.switchTo(0).ok);

        unsigned added = 0;
        for (unsigned i = 0; i < 120; ++i) {
            const Gms gms{2_GiB + uint64_t(i) * 64_KiB, 64_KiB,
                          Perm::rw(), GmsLabel::Slow};
            if (!monitor.addGms(0, gms).ok)
                break;
            ++added;
        }
        if (scheme == IsolationScheme::Pmp)
            EXPECT_LT(added, 16u);
        else
            EXPECT_EQ(added, 120u);
    }
}

TEST(MonitorLabels, FastLabelUsesSegmentEntry)
{
    Machine machine(rocketParams());
    MonitorConfig config;
    config.scheme = IsolationScheme::Hpmp;
    SecureMonitor monitor(machine, config);
    ASSERT_TRUE(monitor.addGms(0, {2_GiB, 16_MiB, Perm::rw(),
                                   GmsLabel::Slow}).ok);
    ASSERT_TRUE(monitor.switchTo(0).ok);

    // Slow GMS: resolved through the table.
    AccessOutcome out;
    machine.setPriv(PrivMode::Supervisor);
    ASSERT_EQ(machine.checkPhys(2_GiB, AccessType::Load, out),
              Fault::None);
    EXPECT_GT(out.pmptRefs, 0u);

    // Relabel fast: now a segment entry covers it, zero table refs.
    ASSERT_TRUE(monitor.setLabel(0, 2_GiB, GmsLabel::Fast).ok);
    AccessOutcome out2;
    ASSERT_EQ(machine.checkPhys(2_GiB, AccessType::Load, out2),
              Fault::None);
    EXPECT_EQ(out2.pmptRefs, 0u);
}

TEST(MonitorCost, SwitchCostStableWithDomainCount)
{
    Machine machine(rocketParams());
    MonitorConfig config;
    config.scheme = IsolationScheme::Hpmp;
    SecureMonitor monitor(machine, config);

    std::vector<DomainId> domains;
    for (unsigned i = 0; i < 32; ++i) {
        const DomainId id = monitor.createDomain();
        ASSERT_TRUE(monitor.addGms(id, {4_GiB + uint64_t(i) * 16_MiB,
                                        16_MiB, Perm::rwx(),
                                        GmsLabel::Fast}).ok);
        domains.push_back(id);
    }
    const uint64_t few = monitor.switchTo(domains[1]).cycles;
    const uint64_t many = monitor.switchTo(domains[31]).cycles;
    // Switching cost must not grow with the number of domains.
    EXPECT_NEAR(double(few), double(many), double(few) * 0.25);
}

} // namespace
} // namespace hpmp
