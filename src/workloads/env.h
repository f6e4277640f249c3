/**
 * @file
 * Ready-made TEE environments for experiments.
 *
 * A TeeEnv assembles the full stack — a one-hart SmpSystem (Rocket
 * or BOOM), secure monitor with one of the three isolation schemes,
 * and a host kernel — using the paper's memory layout conventions,
 * and can mint enclaves out of a dedicated arena the way Penglai's
 * host driver donates memory to new domains.
 */

#ifndef HPMP_WORKLOADS_ENV_H
#define HPMP_WORKLOADS_ENV_H

#include <memory>

#include "core/core_model.h"
#include "core/smp.h"
#include "monitor/secure_monitor.h"
#include "os/address_space.h"
#include "os/kernel.h"

namespace hpmp
{

/** Experiment-level configuration. */
struct EnvConfig
{
    CoreKind core = CoreKind::Rocket;
    IsolationScheme scheme = IsolationScheme::Hpmp;
    unsigned pwcEntries = 8;
    unsigned pmptwEntries = 0; //!< PMPTW-Cache disabled by default (§7)
    unsigned hpmpEntries = 16;
    bool scatterData = false;  //!< fragment physical placement (§8.8)
    unsigned pmptLevels = 2;
    /**
     * Measure enclave memory at creation (Merkle root) so it can be
     * attested later. Off by default: hashing large enclaves is
     * expensive and most benches do not attest.
     */
    bool measureEnclaves = false;
};

/** One enclave: its domain, kernel and initial address space. */
struct Enclave
{
    DomainId domain = 0;
    Addr memBase = 0;
    uint64_t memSize = 0;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<AddressSpace> as;
    /** Creation-time measurement (0 unless measureEnclaves). */
    MerkleHash initialMeasurement = 0;
};

/** The assembled simulation environment. */
class TeeEnv
{
  public:
    explicit TeeEnv(const EnvConfig &config);
    ~TeeEnv();

    const EnvConfig &config() const { return config_; }
    Machine &machine() { return smp_->hart(0); }
    SecureMonitor &monitor() { return *monitor_; }
    Kernel &hostKernel() { return *hostKernel_; }

    /** A CoreModel configured for this machine. */
    CoreModel makeCoreModel() const { return CoreModel(params_); }
    const MachineParams &params() const { return params_; }

    /**
     * Create an enclave with a NAPOT memory region from the enclave
     * arena, a kernel (runtime) and an empty address space, and
     * record the monitor-call cycles in create_cycles if given.
     */
    std::unique_ptr<Enclave> createEnclave(uint64_t mem_bytes,
                                           uint64_t *create_cycles = nullptr);

    /** Destroy the enclave's domain and return its memory. */
    void destroyEnclave(std::unique_ptr<Enclave> enclave,
                        uint64_t *destroy_cycles = nullptr);

    /** Attest an enclave against a verifier-supplied nonce. */
    AttestationReport attestEnclave(const Enclave &enclave,
                                    uint64_t nonce) const;

    /** Enter an enclave: switch domain + activate its address space. */
    uint64_t enterEnclave(Enclave &enclave, PrivMode priv);

    /** Return to the host domain. */
    uint64_t exitToHost();

    /**
     * Lazily-created host-side context (address space + kernel heap)
     * for gateway/IPC work between enclave invocations: serverless
     * chains spend much of their end-to-end time here, paying the
     * host kernel's translation costs.
     */
    AddressSpace &hostGatewayAs();
    Addr hostGatewayHeap() const { return gatewayHeap_; }
    static constexpr uint64_t kGatewayHeapBytes = 24_MiB;

    /** Host memory layout constants. */
    static constexpr Addr kMonitorBase = 0;
    static constexpr uint64_t kMonitorSize = 128_MiB;
    static constexpr Addr kHostBase = 2_GiB;
    static constexpr uint64_t kHostSize = 2_GiB;
    static constexpr Addr kArenaBase = 4_GiB;
    static constexpr uint64_t kArenaSize = 4_GiB;

  private:
    EnvConfig config_;
    MachineParams params_;
    std::unique_ptr<SmpSystem> smp_;
    std::unique_ptr<SecureMonitor> monitor_;
    std::unique_ptr<Kernel> hostKernel_;
    std::unique_ptr<PageAllocator> arena_;
    std::unique_ptr<AddressSpace> gatewayAs_;
    Addr gatewayHeap_ = 0;
};

} // namespace hpmp

#endif // HPMP_WORKLOADS_ENV_H
