/**
 * @file
 * Deterministic fault-injection harness.
 *
 * Robustness code is only as good as the error paths that are actually
 * executed, so every recoverable failure in the stack (monitor call
 * aborts, HPMP programming faults, pmpte store failures, OS allocator
 * exhaustion, pmpte bit flips) is guarded by a named *fault site*:
 *
 *     if (FAULT_POINT("monitor.add_gms"))
 *         ... fail exactly as if the real fault had happened ...
 *
 * Sites fire only when the process-wide FaultInjector is enabled and
 * armed, from an explicit deterministic plan: the Nth hit of a site,
 * every hit with probability p (seeded RNG), an explicit hit schedule,
 * or the Nth hit of *any* site (so fuzzers sweep new sites without
 * being updated). With the injector disabled — the default, and the
 * only state benchmarks ever see — FAULT_POINT compiles to one load
 * and one branch on a bool, so the instrumented paths cost nothing.
 *
 * The injector is intentionally a process-wide singleton: the
 * simulator is single-threaded and sites live in layers (PMP tables,
 * allocators) that must stay ignorant of who is driving the test.
 */

#ifndef HPMP_BASE_FAULT_INJECT_H
#define HPMP_BASE_FAULT_INJECT_H

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"

namespace hpmp
{

/**
 * Exception thrown by a fired fault site in a layer that cannot return
 * an error (register programming, pmpte stores). Transactional callers
 * (the secure monitor) catch it, roll back, and surface a typed error;
 * anything else propagating it is a test driving faults into an
 * unprotected path on purpose.
 */
struct InjectedFault
{
    const char *site;
};

/** Process-wide deterministic fault injector. */
class FaultInjector
{
  public:
    /**
     * The process-wide injector. Inline: the access hot path asks
     * instance().enabled() on every reference.
     */
    static FaultInjector &
    instance()
    {
        static FaultInjector injector;
        return injector;
    }

    /** Fast path: anything armed at all? Inlined into FAULT_POINT. */
    bool enabled() const { return enabled_ && suspend_ == 0; }

    /**
     * RAII suppression for instrumentation code (the stale-translation
     * checker's oracle probes, chaos interleaving probes): while any
     * guard lives, sites neither fire nor count hits, so observer
     * accesses cannot perturb armed plans meant for the workload.
     * Nests.
     */
    class SuspendGuard
    {
      public:
        SuspendGuard() { ++instance().suspend_; }
        ~SuspendGuard() { --instance().suspend_; }
        SuspendGuard(const SuspendGuard &) = delete;
        SuspendGuard &operator=(const SuspendGuard &) = delete;
    };

    /** Enable with a seed (governs probability plans and bit flips). */
    void enable(uint64_t seed);

    /** Disable and clear all plans, counters and the fired log. */
    void disable();

    /** Clear plans and counters but stay enabled with the same seed. */
    void clearPlans();

    /** Arm `site` to fire on its Nth hit from now (1-based). */
    void armNth(const std::string &site, uint64_t nth);

    /** Arm `site` to fire on each hit with probability p. */
    void armProb(const std::string &site, double p);

    /** Arm `site` to fire on an explicit list of hit numbers. */
    void armSchedule(const std::string &site, std::vector<uint64_t> hits);

    /**
     * Arm the Nth hit of *any* site (1-based, counted across sites).
     * This is how the chaos fuzzer reaches sites it does not know by
     * name; it composes with per-site plans.
     */
    void armAnyNth(uint64_t nth);

    /**
     * Decision-controller mode (the model checker, tools/model_check):
     * while a controller is installed it is consulted on every site
     * hit *instead of* the armed plans, turning each FAULT_POINT into
     * a binary branch point an explicit-state enumerator can force
     * either way and record as a replayable decision. Hits are still
     * counted, fired sites still logged, and SuspendGuard still
     * suppresses both the query and the count; the injector must be
     * enable()d for sites to reach the controller at all. Corruption
     * sites (maybeFlipBit) reach the controller too — a controller
     * that does not mean to corrupt must answer false for them. Clear
     * with nullptr.
     */
    using DecisionController = std::function<bool(const char *site)>;
    void setDecisionController(DecisionController controller)
    {
        controller_ = std::move(controller);
    }
    bool hasDecisionController() const { return bool(controller_); }

    /**
     * Should the fault at `site` fire now? Counts the hit either way.
     * Called through FAULT_POINT only when enabled.
     */
    bool shouldFire(const char *site);

    /**
     * Like shouldFire() but excluded from the any-site plan, the same
     * carve-out maybeFlipBit() has: the site fires only when armed by
     * name. Used through FAULT_POINT_NAMED for sites whose firing
     * *creates* damage (memory poisoning) rather than failing an
     * operation — fuzzers sweeping fail-stop sites with armAnyNth must
     * not poison memory they then audit.
     */
    bool shouldFireNamed(const char *site);

    /**
     * Bit-flip helper for data corruption sites: when the site fires,
     * returns `value` with one random bit flipped; otherwise returns
     * it unchanged. Used to model single-event upsets in pmpte stores.
     */
    uint64_t maybeFlipBit(const char *site, uint64_t value);

    /** Hits observed at a site since the last enable/clear. */
    uint64_t hits(const std::string &site) const;

    /** Total fault-site hits across all sites. */
    uint64_t totalHits() const { return totalHits_; }

    /** Sites that actually fired, in order (for fuzz diagnostics). */
    const std::vector<std::string> &firedLog() const { return fired_; }

    /** Every site name ever hit while enabled (coverage reporting). */
    std::vector<std::string> sitesSeen() const;

    /**
     * Sites hit at least once over the whole process lifetime,
     * sorted. Unlike sitesSeen(), this set survives clearPlans() and
     * disable(), so a fuzzer that re-arms per operation and runs many
     * campaigns back to back still reports the union of everything it
     * reached — the input to the CI coverage gate.
     */
    std::vector<std::string> sitesEverSeen() const;

    /** Reset the persistent coverage set (tests only). */
    void resetSiteCoverage() { everSeen_.clear(); }

    /**
     * The curated registry of every FAULT_POINT / maybeFlipBit site in
     * the tree, sorted. New sites must be added here; the registry
     * test asserts every site that fires is registered, and CI asserts
     * every registered site is exercised by at least one chaos
     * campaign.
     */
    static const std::vector<std::string> &knownSites();

  private:
    FaultInjector() = default;

    /** Shared hit accounting; allow_any gates the armAnyNth plan. */
    bool fireCheck(const char *site, bool allow_any);

    struct Plan
    {
        uint64_t nth = 0;             //!< fire on this hit count (0 = off)
        double prob = 0.0;            //!< fire with this probability
        std::vector<uint64_t> sched;  //!< explicit hit numbers, sorted
        uint64_t hitCount = 0;
    };

    Plan &plan(const std::string &site) { return plans_[site]; }

    bool enabled_ = false;
    unsigned suspend_ = 0; //!< nesting depth of live SuspendGuards
    DecisionController controller_; //!< overrides plans while set
    Rng rng_;
    std::map<std::string, Plan> plans_;
    uint64_t anyNth_ = 0;
    uint64_t totalHits_ = 0;
    std::vector<std::string> fired_;
    std::set<std::string> everSeen_; //!< survives disable/clearPlans
};

/**
 * True when the named fault site must fail now. One load + one branch
 * when the injector is disabled (the benchmark configuration).
 */
#define FAULT_POINT(site)                                        \
    (::hpmp::FaultInjector::instance().enabled() &&              \
     ::hpmp::FaultInjector::instance().shouldFire(site))

/**
 * A damage-creating fault site: fires only when armed by name, never
 * through armAnyNth (see shouldFireNamed).
 */
#define FAULT_POINT_NAMED(site)                                  \
    (::hpmp::FaultInjector::instance().enabled() &&              \
     ::hpmp::FaultInjector::instance().shouldFireNamed(site))

} // namespace hpmp

#endif // HPMP_BASE_FAULT_INJECT_H
