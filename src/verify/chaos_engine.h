/**
 * @file
 * Randomized chaos campaigns for the secure monitor.
 *
 * One engine runs every campaign. It drives thousands of random
 * monitor calls — create/destroy domains, register/remove/relabel/
 * share GMSs, hot-region hints, domain switches, attestation — from
 * random harts of an SmpSystem, with fault injection armed, DMA
 * through a two-master IOPMP, and the stale-translation checker and
 * nested-call lock probes interleaved into every IPI protocol step.
 * A campaign may add one layer of extra ops (ChaosLayer). The checks
 * are the campaign contracts of verify/contracts.h, shared with the
 * bounded model checker: after every operation the per-op battery
 * proves that
 *
 *  - every failed call (validation failure or injected fault) left
 *    each hart's monitor + HPMP + PMP-table state bit-identical
 *    (SecureMonitor::hartStateDigest);
 *  - outside a shootdown window every hart holds the same view;
 *  - the stale checker and the nested-call probes saw no violation;
 *  - the isolation invariants hold (monitor/invariants.h);
 *
 * and every success that degraded (Hpmp fast-GMS demotion) says so.
 *
 * Everything is derived from one 64-bit seed, so any failure the CI
 * chaos job finds is replayed exactly with `chaos_fuzz --seed N`.
 */

#ifndef HPMP_VERIFY_CHAOS_ENGINE_H
#define HPMP_VERIFY_CHAOS_ENGINE_H

#include <cstdint>
#include <string>

#include "hpmp/isolation.h"

namespace hpmp
{

/**
 * The extra op family a campaign adds to the base mix (domain
 * lifecycle, DMA, audits). One layer per campaign: each layer takes
 * sole charge of something the others would disturb — the harts'
 * page tables, their guests, the domain population, or a second host.
 */
enum class ChaosLayer
{
    None,
    /**
     * A per-hart kernel (own domain, contiguous PT pool) with an
     * address space per hart: random mmap/munmap/touch/demand-fault
     * traffic and satp rewrites. Exercises the os.page_alloc /
     * os.pt_pool_miss fault sites under the same injection plans as
     * the monitor calls.
     */
    Os,
    /**
     * A VirtMachine guest on every hart. Guests run their own GPT/NPT
     * pairs, switch hgatp between nested tables, remap GPT/NPT leaves,
     * and route every vsatp/hgatp write through the hfence shootdown;
     * the stale checker's two-stage oracle audits each protocol step.
     */
    Virt,
    /**
     * Fleet serving: coalesced epochs (several domain switches from
     * rotating harts batched into one shootdown window), tenant churn
     * with retired-id tracking, stale-handle probes (every retired
     * DomainId must stay a typed denial after its slot is recycled),
     * and same-domain re-switches exercising the empty-diff shootdown
     * elision.
     */
    Fleet,
    /**
     * Memory poison across the blast-radius classes — a victim
     * enclave's data pages, pmpte frames of a live PMP Table,
     * free/host frames, and (rarely, late in the campaign) the
     * monitor-private region — detected through real consumers (hart
     * accesses, DMA beats, a background patrol scrubber) and routed
     * into SecureMonitor::handleMachineCheck. After every containment
     * the campaign audits the blast-radius contract: only the owning
     * domain dies, self-heals leave the measurement bit-identical and
     * the domain grantable, free-frame poison touches nobody, and
     * monitor poison degrades exactly the whole host (every mutating
     * call a typed RasFatal denial, reads still up).
     */
    Ras,
    /**
     * Two hosts — two SmpSystems with their own monitors — that
     * ping-pong domains through the live-migration engine
     * (src/migrate/) while faults hit the protocol's named sites.
     * Aborts must leave the source digest bit-identical and the domain
     * grantable; commits leave the domain on exactly one host with its
     * memory intact; the cross-system oracle must see no dual-grant
     * window (verify/migrate_chaos.h).
     */
    Migrate,
};

/** One fuzz campaign's parameters. */
struct ChaosConfig
{
    uint64_t seed = 1;
    unsigned ops = 1000;
    IsolationScheme scheme = IsolationScheme::Hpmp;
    /** Probability that an op runs with a fault armed at a random site. */
    double faultProb = 0.25;
    /**
     * Harts in the system. Every op initiates from a random hart, so
     * with more than one hart the IPI shootdowns (fault injection in
     * delivery/ack), the per-hart rollback digests and the
     * convergence checks all have siblings to work on.
     */
    unsigned harts = 1;
    ChaosLayer layer = ChaosLayer::None;
    /**
     * When set, receives the campaign's full stats-registry JSON
     * (monitor + machine observability counters) captured just before
     * the campaign's machine is torn down.
     */
    std::string *statsJsonOut = nullptr;
    /**
     * When set, receives a windowed time-series of the same registry
     * (StatSampler::dumpJson): every counter snapshotted each
     * statsSeriesInterval simulated cycles of monitor work, so a
     * campaign's telemetry can be plotted over time instead of only
     * summed at the end. The campaign clock is the monitor's
     * call_cycles distribution sum (both monitors' sums added for
     * --migrate), which advances exactly with the simulated work.
     */
    std::string *statsSeriesOut = nullptr;
    /** Simulated cycles between stats-series samples. */
    uint64_t statsSeriesInterval = 10000;
};

/** Campaign outcome and coverage counters. */
struct ChaosStats
{
    unsigned ops = 0;            //!< operations attempted
    unsigned okOps = 0;          //!< operations that succeeded
    unsigned failedOps = 0;      //!< typed failures (any cause)
    unsigned injectedFaults = 0; //!< failures caused by the injector
    unsigned degradedOps = 0;    //!< successes in degraded mode
    unsigned rollbackChecks = 0; //!< digest-verified rollbacks
    unsigned invariantChecks = 0;

    // Protocol, checker and DMA coverage (shootdown and lock counters
    // need a sibling hart, so they stay zero with one hart):
    unsigned harts = 1;            //!< harts the campaign ran with
    uint64_t ipiShootdowns = 0;    //!< layout changes that IPI'd siblings
    uint64_t ipiLost = 0;          //!< injected IPI losses (failed closed)
    uint64_t lockContended = 0;    //!< nested calls bounced off the lock
    uint64_t staleProbes = 0;      //!< stale-checker accesses driven
    uint64_t preAckStaleHits = 0;  //!< stale grants inside the window
    uint64_t postAckViolations = 0; //!< checker hard failures (must be 0)
    uint64_t convergenceChecks = 0; //!< all-hart digest comparisons
    uint64_t osOps = 0;            //!< OS-layer operations performed
    uint64_t dmaOps = 0;           //!< DMA transfers attempted
    uint64_t dmaBusWaits = 0;      //!< transfers stalled by the bus
    uint64_t dmaBusWaitCycles = 0; //!< total shared-bus stall cycles

    // ChaosLayer::Virt campaigns only:
    uint64_t virtOps = 0;           //!< guest ops (touch/switch/remap)
    uint64_t hfenceShootdowns = 0;  //!< guest fences riding monitor IPIs
    uint64_t virtStaleProbes = 0;   //!< two-stage oracle probes driven
    uint64_t virtPreAckStaleHits = 0; //!< guest stale grants in-window
    uint64_t staleExecGrants = 0;   //!< stale grants on fetch watches
    uint64_t staleRwGrants = 0;     //!< stale grants on load/store watches

    // ChaosLayer::Fleet campaigns only:
    uint64_t fleetOps = 0;          //!< fleet sub-ops performed
    uint64_t fleetEpochs = 0;       //!< coalesced switch epochs run
    uint64_t fleetChurns = 0;       //!< tenants destroyed (ids retired)
    uint64_t fleetStaleProbes = 0;  //!< retired-id probes (all denied)
    uint64_t coalescedWindows = 0;  //!< windows the monitor flushed

    // ChaosLayer::Ras campaigns only:
    uint64_t rasOps = 0;            //!< RAS sub-ops performed
    uint64_t rasPoisons = 0;        //!< poison events planted
    uint64_t rasMachineChecks = 0;  //!< poison consumed via access/DMA paths
    uint64_t rasReports = 0;        //!< handleMachineCheck invocations
    uint64_t rasQuarantines = 0;    //!< frames retired by the monitor
    uint64_t rasContained = 0;      //!< domains destroyed to contain poison
    uint64_t rasHeals = 0;          //!< PMP Tables rebuilt from clean frames
    uint64_t rasFatalEvents = 0;    //!< whole-host degrades (monitor poison)
    uint64_t scrubPagesScanned = 0; //!< patrol scrubber coverage
    uint64_t scrubDetections = 0;   //!< poisoned frames the patrol found
    uint64_t rasBlastViolations = 0; //!< containment crossed a boundary (must be 0)

    // ChaosLayer::Migrate campaigns only:
    uint64_t migrations = 0;     //!< migration attempts started
    uint64_t migrateCommits = 0; //!< committed + activated on the dest
    uint64_t migrateAborts = 0;  //!< rolled back pre-commit
    uint64_t migrateStranded = 0; //!< committed, COMMIT lost (staged)
    uint64_t migrateRetries = 0;  //!< message retries across phases
    uint64_t migrateBytes = 0;    //!< checkpoint bytes moved
    uint64_t migrateDigestChecks = 0;  //!< post-abort digest audits
    uint64_t dualGrantChecks = 0;      //!< oracle protocol-step probes
    uint64_t dualGrantViolations = 0;  //!< must be 0
    uint64_t migrateStaleProbes = 0;   //!< post-commit stale-id denials

    bool failed = false;   //!< an invariant or rollback check tripped
    std::string failure;   //!< description, mentions op index + seed
};

/**
 * Run one campaign of any layer. Deterministic in config.seed and
 * config.harts (the interleaving derives from both).
 */
ChaosStats runChaos(const ChaosConfig &config);

} // namespace hpmp

#endif // HPMP_VERIFY_CHAOS_ENGINE_H
