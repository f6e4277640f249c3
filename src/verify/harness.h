/**
 * @file
 * Bounded-model execution harness (one path = one run).
 *
 * The model checker is *stateless-search* style (CHESS/VeriSoft): the
 * simulated system (SmpSystem + SecureMonitor + StaleChecker) is too
 * heavyweight to snapshot per state, so the enumerator explores the
 * decision tree by re-executing the whole bounded scenario from its
 * initial state along each path. Each runPath() call builds a fresh
 * system (verify::SystemFixture), installs the three decision taps —
 *
 *  - SmpSystem::setSchedHook        (which hart runs its next op),
 *  - FaultInjector decision controller (FAULT_POINT fire/no-fire),
 *  - a verify::IpiProbe whose Inject decision may drive a victim-hart
 *    nested call at Posted/Delivered steps (must bounce LockContended),
 *
 * — replays the forced decision prefix, continues with defaults while
 * recording every further branch point, and checks after *every*
 * script op, with the per-op battery the chaos engine runs too
 * (verify::auditOp, verify/contracts.h):
 *
 *  1. isolation invariants (monitor/invariants.h);
 *  2. StaleChecker: no post-ack stale grant, strict quiescent sweep;
 *  3. digest-exact rollback of failed calls and cross-hart digest
 *     convergence of successful ones;
 *  4. every opened shootdown window closed (bounded-retry termination).
 *
 * The model configuration deliberately runs harts bare with the PMPTW
 * cache disabled, so a hart's complete modelled state is its HPMP
 * register file — exactly what hartStateDigest hashes. That makes the
 * visited-state dedup sound (two equal keys really are the same
 * state) and makes script Access ops state-invisible probes, which is
 * what the sleep-set-style reduction in the enumerator relies on
 * (DESIGN.md §14).
 */

#ifndef HPMP_VERIFY_HARNESS_H
#define HPMP_VERIFY_HARNESS_H

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "hpmp/isolation.h"
#include "verify/decision.h"

namespace hpmp::verify
{

/**
 * The extra op family a chaos campaign adds to the base mix (domain
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
     * window (verify/contracts.h judgeMigration).
     */
    Migrate,
};

/**
 * The one campaign configuration: every knob of the bounded model
 * checker's scripts and of the seeded chaos campaigns. The CLI flags
 * and a counterexample's header set it through the same key=value
 * parser (applyConfigLine).
 */
struct CampaignConfig
{
    unsigned harts = 2;
    IsolationScheme scheme = IsolationScheme::Hpmp;
    /** Scenario: "core" (monitor-call script) | "migrate" (two-host
     *  two-phase handoff, fault branching only) | "ras" (poison
     *  placement across the blast-radius classes, fault branching on
     *  the containment paths) | "chaos" (a seeded chaos campaign,
     *  verify/chaos_engine.h). */
    std::string script = "core";
    /** Mutation: sabotage the Nth shootdown (skip sibling fences).
     *  0 = off. Used by the smoke tests that must find a bug. */
    uint64_t mutateSkipFenceNth = 0;

    // ---- the model-check scripts (core, migrate, ras) ---------------
    unsigned domains = 2; //!< enclave domains beyond the host
    /** 4 KiB pages per enclave GMS (kept NAPOT internally). */
    unsigned pages = 16;
    /** Max recorded decisions per path; deeper paths are truncated
     *  (counted, never silently dropped). */
    unsigned depthLimit = 4096;
    bool faultBranch = true; //!< branch on FAULT_POINT sites at all
    unsigned maxFaults = 1;  //!< fault fires per path (branch budget)
    unsigned maxInjects = 1; //!< nested-call probes per path
    /** Branchable fault sites; empty = the script's default set. */
    std::vector<std::string> faultSites;

    // ---- chaos campaigns --------------------------------------------
    uint64_t seed = 1;
    unsigned ops = 1000;
    /** Probability that an op runs with a fault armed at a random site. */
    double faultProb = 0.25;
    ChaosLayer layer = ChaosLayer::None;
    /**
     * When set, receives the campaign's full stats-registry JSON
     * (monitor + machine observability counters) captured just before
     * the campaign's machine is torn down. An output, not a key.
     */
    std::string *statsJsonOut = nullptr;
    /**
     * When set, receives a windowed time-series of the same registry
     * (StatSampler::dumpJson): every counter snapshotted each
     * statsSeriesInterval simulated cycles of monitor work, so a
     * campaign's telemetry can be plotted over time instead of only
     * summed at the end. The campaign clock is the monitor's
     * call_cycles distribution sum (both monitors' sums added for
     * the migrate layer), which advances exactly with the simulated
     * work. An output, not a key.
     */
    std::string *statsSeriesOut = nullptr;
    /** Simulated cycles between stats-series samples. */
    uint64_t statsSeriesInterval = 10000;

    /** "key=value" lines for trace headers: the keys that shape this
     *  config's scenario. */
    std::vector<std::string> configLines() const;
    /** Apply one "key=value" line (a flag or a trace header line).
     *  @return false on an unknown key, an unknown script, scheme or
     *  layer name, a value that is not a whole unsigned number
     *  (trailing junk included) or a probability outside [0, 1]. */
    bool applyConfigLine(const std::string &line, std::string &error);
    /** Check the scenario's preconditions (core: harts >= 2 and
     *  domains >= 1; ras: domains >= 1; chaos: harts and ops >= 1, and
     *  sibling harts for the os, virt and fleet layers). @return
     *  false, with the reason in `error`, if the config cannot run. */
    bool validate(std::string &error) const;
    /** The effective branchable-site set for this config. */
    std::vector<std::string> effectiveSites() const;
};

/** Outcome of executing one decision path. */
struct RunOutcome
{
    std::vector<Decision> decisions; //!< all branch points, in order
    bool violated = false;
    Violation violation;
    bool truncated = false;  //!< hit depthLimit; not exhaustive
    bool deduped = false;    //!< stopped early on a visited state
    bool divergence = false; //!< forced prefix failed to align
    std::string divergenceWhy;
    uint64_t newTransitions = 0; //!< ops executed past the forced prefix
    uint64_t sleepMergedAlts = 0; //!< sched alternatives merged (POR)
};

/** Visited-state store shared across a search. */
using StateSet = std::unordered_set<uint64_t>;

/**
 * Execute one path of config.script: the monitor-call script ("core"),
 * the two-host live migration ("migrate"), RAS containment ("ras") or
 * a chaos campaign ("chaos", no depth bound: a campaign is finite).
 * `forced` is the decision prefix to replay (nullptr = all defaults);
 * `visited` turns on explicit-state dedup for the core script (nullptr
 * during replay/minimization). Panics on a config validate() rejects.
 */
RunOutcome runPath(const CampaignConfig &config,
                   const std::vector<Decision> *forced, StateSet *visited);

} // namespace hpmp::verify

#endif // HPMP_VERIFY_HARNESS_H
