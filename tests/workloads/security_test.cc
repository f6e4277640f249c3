/**
 * @file
 * End-to-end security integration tests: the full stack (enclave OS
 * building page tables, the machine walking them, HPMP checking every
 * physical reference) must stop a malicious enclave kernel from
 * reaching memory it does not own — exactly the threat model of the
 * paper's Figure 1.
 */

#include <gtest/gtest.h>

#include "workloads/env.h"
#include "workloads/runner.h"

namespace hpmp
{
namespace
{

class SecurityTest : public ::testing::TestWithParam<IsolationScheme>
{
  protected:
    void
    SetUp() override
    {
        EnvConfig config;
        config.scheme = GetParam();
        config.measureEnclaves = true;
        env = std::make_unique<TeeEnv>(config);
        victim = env->createEnclave(4_MiB);
        attacker = env->createEnclave(4_MiB);

        // Give the victim a secret.
        env->enterEnclave(*victim, PrivMode::User);
        secret_va = victim->as->mmap(kPageSize, Perm::rw(), true, true);
        secret_pa = *victim->as->pageTable().translate(secret_va);
        env->machine().mem().write64(secret_pa, 0x5ec7e7);
        env->exitToHost();
    }

    std::unique_ptr<TeeEnv> env;
    std::unique_ptr<Enclave> victim;
    std::unique_ptr<Enclave> attacker;
    Addr secret_va = 0;
    Addr secret_pa = 0;
};

TEST_P(SecurityTest, MappingForeignDataPageFaultsOnAccess)
{
    // The attacker's (untrusted) kernel maps the victim's secret frame
    // into its own address space — translation succeeds, but the
    // physical check must deny the data reference.
    env->enterEnclave(*attacker, PrivMode::User);
    const Addr evil_va = 0x70000000;
    ASSERT_TRUE(attacker->as->mapFrameAt(evil_va,
                                         alignDown(secret_pa, kPageSize),
                                         Perm::rw(), true));
    const AccessOutcome out =
        env->machine().access(evil_va, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::LoadAccessFault);
}

TEST_P(SecurityTest, ForeignPtPageAlsoDenied)
{
    // A page table whose *PT pages* live in foreign memory must fail
    // during the walk itself (PT-page references are checked too).
    env->enterEnclave(*attacker, PrivMode::User);
    PageTable evil_pt(env->machine().mem(),
                      bumpAllocator(victim->memBase + 64_KiB),
                      PagingMode::Sv39);
    evil_pt.map(0x40000000, attacker->memBase + 1_MiB, Perm::rw(), true);
    env->machine().setSatp(evil_pt.rootPa(), PagingMode::Sv39);

    const AccessOutcome out =
        env->machine().access(0x40000000, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::LoadAccessFault);
    EXPECT_EQ(out.ptRefs + out.dataRefs, 0u); // stopped at the first ref
}

TEST_P(SecurityTest, HostCannotReadEnclaveEither)
{
    env->exitToHost();
    AccessOutcome out;
    EXPECT_EQ(env->machine().checkPhys(secret_pa, AccessType::Load, out),
              Fault::LoadAccessFault);
}

TEST_P(SecurityTest, EnclaveWorksNormallyInsideItsOwnMemory)
{
    env->enterEnclave(*attacker, PrivMode::User);
    CoreModel model = env->makeCoreModel();
    Runner r(*attacker->kernel, *attacker->as, model);
    const Addr va = attacker->as->mmap(64_KiB, Perm::rw(), true, true);
    for (unsigned i = 0; i < 16; ++i)
        r.store(va + i * kPageSize / 4);
    EXPECT_EQ(r.faultsServiced(), 0u);
}

TEST_P(SecurityTest, AttestationDistinguishesTamperedEnclave)
{
    const AttestationReport clean = env->attestEnclave(*victim, 1);
    EXPECT_TRUE(env->monitor().attestor().verify(clean, 1));

    // Physical tampering (e.g. a DMA attack) changes the measurement.
    env->machine().mem().write64(secret_pa + 8, 0xbadc0de);
    const AttestationReport tampered = env->attestEnclave(*victim, 2);
    EXPECT_NE(tampered.measurement, clean.measurement);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SecurityTest,
    ::testing::Values(IsolationScheme::Pmp, IsolationScheme::PmpTable,
                      IsolationScheme::Hpmp),
    [](const ::testing::TestParamInfo<IsolationScheme> &param_info) {
        return std::string(toString(param_info.param));
    });

} // namespace
} // namespace hpmp
