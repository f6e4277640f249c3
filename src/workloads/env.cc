#include "workloads/env.h"

#include <algorithm>

#include "base/bitfield.h"
#include "base/logging.h"

namespace hpmp
{

namespace
{

MachineParams
buildParams(const EnvConfig &config)
{
    MachineParams p = machineParams(config.core);
    p.pwcEntries = config.pwcEntries;
    p.pmptwEntries = config.pmptwEntries;
    p.hpmpEntries = config.hpmpEntries;
    return p;
}

KernelConfig
hostKernelConfig(const EnvConfig &config)
{
    KernelConfig kc;
    // The contiguous PT pool is the HPMP OS extension; the baselines
    // allocate PT pages like any other page.
    kc.contiguousPtPool = config.scheme == IsolationScheme::Hpmp;
    kc.scatterData = config.scatterData;
    return kc;
}

} // namespace

TeeEnv::TeeEnv(const EnvConfig &config)
    : config_(config),
      params_(buildParams(config))
{
    smp_ = std::make_unique<SmpSystem>(params_, SmpParams{});

    MonitorConfig mc;
    mc.scheme = config.scheme;
    mc.monitorBase = kMonitorBase;
    mc.monitorSize = kMonitorSize;
    mc.pmptLevels = config.pmptLevels;
    monitor_ = std::make_unique<SecureMonitor>(*smp_, mc);

    hostKernel_ = std::make_unique<Kernel>(*monitor_, DomainId{0},
                                           kHostBase, kHostSize,
                                           hostKernelConfig(config));
    arena_ = std::make_unique<PageAllocator>(kArenaBase, kArenaSize);

    // Make the host layout live.
    auto res = monitor_->switchTo(0);
    fatal_if(!res.ok, "host layout failed: %s", res.error.c_str());
}

TeeEnv::~TeeEnv() = default;

std::unique_ptr<Enclave>
TeeEnv::createEnclave(uint64_t mem_bytes, uint64_t *create_cycles)
{
    // Round up to a NAPOT size, with room for the PT pool carve-out.
    uint64_t size = 256_KiB;
    while (size < mem_bytes)
        size <<= 1;

    auto enclave = std::make_unique<Enclave>();
    auto base = arena_->allocNapot(size);
    fatal_if(!base, "enclave arena exhausted");
    enclave->memBase = *base;
    enclave->memSize = size;
    enclave->domain = monitor_->createDomain();

    KernelConfig kc;
    kc.contiguousPtPool = config_.scheme == IsolationScheme::Hpmp;
    // Scale the PT pool with the enclave: a quarter of memory capped
    // at 16 MiB, at least 64 KiB.
    kc.ptPoolBytes = std::min<uint64_t>(16_MiB,
                                        std::max<uint64_t>(64_KiB,
                                                           size / 4));
    kc.scatterData = config_.scatterData;
    enclave->kernel = std::make_unique<Kernel>(*monitor_, enclave->domain,
                                               enclave->memBase,
                                               enclave->memSize, kc);
    enclave->as = enclave->kernel->createAddressSpace();

    if (config_.measureEnclaves) {
        const auto measure = monitor_->measureDomain(enclave->domain);
        panic_if(!measure.ok, "measureDomain failed: %s",
                 measure.error.c_str());
        enclave->initialMeasurement = measure.value;
    }

    // createDomain is registry bookkeeping, not a monitor transaction,
    // so it costs nothing; the creation's monitor-call cycles are the
    // kernel's GMS registrations.
    if (create_cycles)
        *create_cycles = enclave->kernel->registrationCycles();
    return enclave;
}

void
TeeEnv::destroyEnclave(std::unique_ptr<Enclave> enclave,
                       uint64_t *destroy_cycles)
{
    panic_if(!enclave, "destroyEnclave(nullptr)");
    if (monitor_->currentDomain() == enclave->domain)
        exitToHost();
    enclave->as.reset();
    enclave->kernel.reset();
    auto res = monitor_->destroyDomain(enclave->domain);
    panic_if(!res.ok, "destroyDomain failed: %s", res.error.c_str());
    arena_->free(enclave->memBase,
                 unsigned(enclave->memSize / kPageSize));
    if (destroy_cycles)
        *destroy_cycles = res.cycles;
}

AttestationReport
TeeEnv::attestEnclave(const Enclave &enclave, uint64_t nonce) const
{
    const auto report = monitor_->attestDomain(enclave.domain, nonce);
    // The env always attests enclaves it created, so a typed failure
    // here is a harness bug, not OS input.
    panic_if(!report.ok, "attestDomain failed: %s", report.error.c_str());
    return report.value;
}

uint64_t
TeeEnv::enterEnclave(Enclave &enclave, PrivMode priv)
{
    auto res = monitor_->switchTo(enclave.domain);
    fatal_if(!res.ok, "enterEnclave: %s", res.error.c_str());
    enclave.kernel->activate(*enclave.as, priv);
    return res.cycles;
}

AddressSpace &
TeeEnv::hostGatewayAs()
{
    if (!gatewayAs_) {
        gatewayAs_ = hostKernel_->createAddressSpace();
        gatewayHeap_ = gatewayAs_->mmap(kGatewayHeapBytes, Perm::rw(),
                                        false, true);
    }
    return *gatewayAs_;
}

uint64_t
TeeEnv::exitToHost()
{
    auto res = monitor_->switchTo(0);
    fatal_if(!res.ok, "exitToHost: %s", res.error.c_str());
    machine().setPriv(PrivMode::Supervisor);
    return res.cycles;
}

} // namespace hpmp
