/**
 * @file
 * DFS enumerator over the bounded model's decision tree.
 *
 * Stateless search: each path is a fresh run of the bounded scenario
 * (verify/harness.h) under a forced decision prefix. Backtracking is
 * textbook — take the completed path's decision vector, find the
 * deepest decision with an unexplored alternative, advance it and
 * drop everything after; rerun. The search is exhaustive (up to the
 * depth bound) because a run records *every* multi-alternative point
 * it passes.
 *
 * Two reductions keep the tree tractable, both justified in
 * DESIGN.md §14:
 *
 *  - explicit-state dedup: a run that re-enters a previously visited
 *    canonical state (monitor digest + per-hart digests + script
 *    positions + branch budgets) stops — the subtree beyond it was
 *    already explored from the first visit;
 *  - a sleep-set-style merge of scheduling alternatives whose next op
 *    is a state-invisible access (they commute with everything).
 *
 * Violating paths are minimized (flip non-default decisions back to
 * default, keep only flips the violation survives; trim trailing
 * defaults) and can be replayed bit-exactly — reproduction means the
 * same violation kind at the same canonical state digest.
 */

#ifndef HPMP_VERIFY_ENUMERATOR_H
#define HPMP_VERIFY_ENUMERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "verify/harness.h"

namespace hpmp::verify
{

/** Search counters, reported by the CLI and asserted on by tests. */
struct CheckStats
{
    uint64_t paths = 0;          //!< complete runs executed
    uint64_t states = 0;         //!< distinct canonical states seen
    uint64_t transitions = 0;    //!< script ops executed past prefixes
    uint64_t violations = 0;     //!< violating paths found
    uint64_t truncatedPaths = 0; //!< paths cut by the depth bound
    uint64_t dedupStops = 0;     //!< runs stopped on a visited state
    uint64_t sleepMergedAlts = 0; //!< sched alternatives merged (POR)
    uint64_t minimizeRuns = 0;    //!< extra runs spent minimizing
};

/** Outcome of a whole search. */
struct CheckResult
{
    CheckStats stats;
    /** Minimized counterexamples, in discovery order. */
    std::vector<DecisionTrace> counterexamples;
    /**
     * True iff the search covered the entire bounded tree: no path
     * hit the depth bound and no stop-early limit triggered.
     */
    bool exhaustive = false;
};

/** Verdict of re-running a counterexample trace. */
struct ReplayReport
{
    bool reproduced = false; //!< violated with the same violation kind
    bool bitExact = false;   //!< ...at the same canonical state digest
    std::string detail;      //!< what differed, when not bit-exact
    RunOutcome outcome;
};

class ModelChecker
{
  public:
    explicit ModelChecker(CampaignConfig config) : config_(std::move(config))
    {}

    /**
     * Exhaustively enumerate the decision tree. Stops early once
     * `maxViolations` violating paths were found (0 = never), or
     * after `maxPaths` runs (0 = unlimited; a safety valve for CI
     * time budgets — trips `exhaustive = false`).
     */
    CheckResult run(unsigned maxViolations = 0, uint64_t maxPaths = 0);

    /**
     * Shrink a violating trace: flip each non-default decision back
     * to its default (falling back to truncating the path there) and
     * keep any change under which the same violation kind still
     * trips; trim trailing default decisions. Iterates to a fixpoint
     * (bounded). The result replays the *same violation kind*; its
     * digest is re-stamped from the minimized run.
     */
    DecisionTrace minimize(const DecisionTrace &trace);

    /** Re-run a trace and compare against its recorded violation. */
    ReplayReport replay(const DecisionTrace &trace);

    /**
     * replay(), with the trace ring capturing Monitor/Fault spans and
     * the retained window written to `jsonPath` as chrome://tracing
     * JSON. Tracer flag state is restored afterwards.
     */
    ReplayReport replayWithChromeDump(const DecisionTrace &trace,
                                      const std::string &jsonPath);

  private:
    CampaignConfig config_;
    uint64_t minimizeRuns_ = 0;
};

} // namespace hpmp::verify

#endif // HPMP_VERIFY_ENUMERATOR_H
