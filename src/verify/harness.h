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

/** Bounded-configuration knobs (the CLI mirrors these 1:1). */
struct ModelConfig
{
    unsigned harts = 2;
    unsigned domains = 2; //!< enclave domains beyond the host
    /** 4 KiB pages per enclave GMS (kept NAPOT internally). */
    unsigned pages = 16;
    IsolationScheme scheme = IsolationScheme::Hpmp;
    /** Scenario: "core" (monitor-call script) | "migrate" (two-host
     *  two-phase handoff, fault branching only) | "ras" (poison
     *  placement across the blast-radius classes, fault branching on
     *  the containment paths). */
    std::string script = "core";
    /** Max recorded decisions per path; deeper paths are truncated
     *  (counted, never silently dropped). */
    unsigned depthLimit = 4096;
    bool faultBranch = true; //!< branch on FAULT_POINT sites at all
    unsigned maxFaults = 1;  //!< fault fires per path (branch budget)
    unsigned maxInjects = 1; //!< nested-call probes per path
    /** Branchable fault sites; empty = the script's default set. */
    std::vector<std::string> faultSites;
    /** Mutation: sabotage the Nth shootdown (skip sibling fences).
     *  0 = off. Used by the CI smoke test that must find a bug. */
    uint64_t mutateSkipFenceNth = 0;

    /** "key=value" lines for trace headers. */
    std::vector<std::string> configLines() const;
    /** Apply one "key=value" line (parsing a trace). @return false on
     *  an unknown key, an unknown script or scheme name, or a value
     *  that is not a whole unsigned number (trailing junk included). */
    bool applyConfigLine(const std::string &line, std::string &error);
    /** Check the scenario's preconditions (core: harts >= 2 and
     *  domains >= 1; ras: domains >= 1). @return false, with the
     *  reason in `error`, if the config cannot run. */
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
    uint64_t opsExecuted = 0;    //!< script ops run this path
    uint64_t newTransitions = 0; //!< ops executed past the forced prefix
    uint64_t sleepMergedAlts = 0; //!< sched alternatives merged (POR)
    uint64_t finalDigest = 0;     //!< state key at end (or violation)
};

/** Visited-state store shared across a search. */
using StateSet = std::unordered_set<uint64_t>;

/**
 * Execute one path of config.script: the monitor-call script ("core"),
 * the two-host live migration ("migrate") or RAS containment ("ras").
 * `forced` is the decision prefix to replay (nullptr = all defaults);
 * `visited` turns on explicit-state dedup for the core script (nullptr
 * during replay/minimization). Panics on a config validate() rejects.
 */
RunOutcome runPath(const ModelConfig &config,
                   const std::vector<Decision> *forced, StateSet *visited);

} // namespace hpmp::verify

#endif // HPMP_VERIFY_HARNESS_H
