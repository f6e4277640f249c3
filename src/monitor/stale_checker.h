/**
 * @file
 * Interleaving-driven stale-translation checker (DESIGN.md §9).
 *
 * The bug class this hunts: after a monitor call changes the
 * permission layout, every hart that has not yet taken the
 * remote-fence IPI keeps serving translations from its own cached
 * state — its HPMP register file and, worse, permissions inlined into
 * TLB entries at fill time. Inside the shootdown window such stale
 * grants are an accepted, *bounded* architectural cost (the paper's
 * fence protocol closes the window); after a hart acked its IPI, or
 * after the window closed, a single stale grant is a security hole.
 *
 * StaleChecker plugs into SmpSystem's InterleaveHook so it runs at
 * every step of the IPI protocol — exactly the points where a real
 * scheduler could interleave victim-hart accesses. At each step it
 * drives the watched accesses on the other harts, at two levels:
 *
 *  - register level: HpmpUnit::probe on the hart's own register file
 *    (side-effect free) — catches unsynchronized registers;
 *  - access level: a real Machine::access through the hart's TLB —
 *    catches stale inlined permissions the register check cannot see.
 *
 * Verdicts against the canonical (monitor-programmed) state:
 *
 *  - unacked hart grants what the new state denies → counted as a
 *    pre-ack stale hit (bounded by probes × watches, never a failure);
 *  - acked hart (or any hart after WindowEnd / at quiescence) grants
 *    what the canonical state denies → hard failure;
 *  - fail-closed mismatches (spurious denials) never fail mid-window.
 *
 * At WindowEnd the oracle is *recomputed* from the canonical state
 * rather than replayed from the WindowBegin capture: a call that
 * aborted mid-shootdown rolls every hart back and re-fences it, so the
 * post-window contract is "all harts match canonical now", whatever
 * "now" is — committed or restored.
 *
 * All probes run under FaultInjector::SuspendGuard so the checker's
 * own instrumentation neither trips fault sites nor consumes hits from
 * the campaign's injection plan.
 */

#ifndef HPMP_MONITOR_STALE_CHECKER_H
#define HPMP_MONITOR_STALE_CHECKER_H

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/stats.h"
#include "core/smp.h"
#include "monitor/secure_monitor.h"
#include "pt/two_stage.h"

namespace hpmp
{

/**
 * One access the checker replays on a victim hart at every protocol
 * step. `va` is the address driven through Machine::access on that
 * hart (equal to `pa` for bare-mode harts); `pa` is the physical page
 * the canonical permission oracle is evaluated at.
 */
struct StaleWatch
{
    unsigned hart = 0;
    Addr va = 0;
    Addr pa = 0;
    AccessType type = AccessType::Load;
    /**
     * Also drive the access through the hart's TLB (catches stale
     * inlined permissions). Register-level probing always runs. Turn
     * off for watches whose access-path side effects (TLB/cache fills)
     * would perturb a measurement the campaign cares about.
     */
    bool accessPath = true;
};

/**
 * One guest access replayed on a victim hart's VirtMachine at every
 * protocol step (the two-stage oracle). The canonical expectation is
 * evaluated stage by stage: the committed VS-stage permission for
 * (hart, gva), the committed G-stage permission for (hart, gpa), and
 * the canonical physical permission probed at spa. A stale grant is
 * attributed to the first stage that should have denied it.
 */
struct VirtStaleWatch
{
    unsigned hart = 0;
    Addr gva = 0; //!< driven through VirtMachine::access on that hart
    Addr gpa = 0; //!< committed G-stage oracle page
    Addr spa = 0; //!< canonical physical oracle address
    AccessType type = AccessType::Load;
};

class StaleChecker : public InterleaveHook
{
  public:
    /** Watches every hart of the monitor's SmpSystem. */
    explicit StaleChecker(SecureMonitor &monitor);

    void addWatch(const StaleWatch &watch) { watches_.push_back(watch); }

    /** Two-stage oracle watches (virt-enabled systems only). */
    void addVirtWatch(const VirtStaleWatch &watch)
    {
        virtWatches_.push_back(watch);
    }

    /**
     * Commit the expected VS-stage leaf permission for (hart, gva
     * page). Campaigns call this *before* the fencing vsatp write, the
     * same way the monitor commits canonical state before fencing.
     */
    void setGuestPerm(unsigned hart, Addr gva, Perm perm);

    /** Commit the expected G-stage leaf permission for (hart, gpa page). */
    void setGpaPerm(unsigned hart, Addr gpa, Perm perm);

    /** InterleaveHook: called at every IPI protocol step. */
    void onIpiStep(const IpiEvent &event) override;

    /**
     * Full-strictness check outside any shootdown window (call after
     * every campaign op): every hart must agree with the canonical
     * state on every watch, in both directions.
     * @return true iff no violation was found.
     */
    bool checkQuiescent();

    /** True once any hard violation was recorded (sticky). */
    bool failed() const { return failed_; }
    /** Human-readable description of the *first* violation. */
    const std::string &failure() const { return failure_; }

    uint64_t preAckStaleHits() const { return preAckStaleHits_.value(); }
    uint64_t postAckViolations() const
    {
        return postAckViolations_.value();
    }
    uint64_t probesRun() const { return statProbes_.value(); }
    uint64_t windowsSeen() const { return statWindows_.value(); }

    uint64_t virtProbesRun() const { return statVirtProbes_.value(); }
    uint64_t virtPreAckStaleHits() const
    {
        return virtPreAckStaleHits_.value();
    }
    uint64_t virtStaleDenies() const { return statVirtStaleDenies_.value(); }
    /** Stale grants by the canonical stage that should have denied. */
    uint64_t staleGuestStageOrigin() const
    {
        return statStaleGuestOrigin_.value();
    }
    uint64_t staleGStageOrigin() const
    {
        return statStaleGStageOrigin_.value();
    }
    uint64_t stalePmpteOrigin() const
    {
        return statStalePmpteOrigin_.value();
    }

    /**
     * Stale guest grants split by access class: instruction fetches
     * through X-only leaves are hunted and attributed separately from
     * load/store (RW) grants — a stale executable mapping is the
     * injectable-code bug, not just a data leak.
     */
    uint64_t staleExecGrants() const { return statStaleExecGrants_.value(); }
    uint64_t staleRwGrants() const { return statStaleRwGrants_.value(); }

    /** "stale_checker" group: probes, hits, violations, windows. */
    StatGroup &stats() { return stats_; }
    void registerStats(StatRegistry &registry) { registry.add(&stats_); }

  private:
    /** Access-level probe verdict. */
    enum class AccessVerdict : uint8_t
    {
        Grant,     //!< access completed fault-free
        Deny,      //!< HPMP/PMP access fault (fail closed)
        PageFault, //!< translation failure: watch unusable this probe
        Skipped,   //!< accessPath disabled for this watch
    };

    struct ProbeResult
    {
        bool regGrant = false;
        AccessVerdict access = AccessVerdict::Skipped;
    };

    /** What the monitor's canonical register file says right now. */
    bool canonicalAllows(const StaleWatch &watch) const;

    /** Drive one watch on its hart (fault injection suspended). */
    ProbeResult probeWatch(const StaleWatch &watch);

    /**
     * Probe every watch and judge it. `strict` additionally fails
     * fenced-hart mismatches in the deny direction (post-window and
     * quiescent checks); mid-window only stale *grants* can fail.
     */
    void sweep(bool strict, const char *where, uint64_t seq);

    /** Canonical verdict + deny origin for one virt watch. */
    struct VirtOracle
    {
        bool allow = false;
        VirtFaultOrigin denyOrigin = VirtFaultOrigin::None;
    };

    /** Evaluate the three-stage canonical expectation right now. */
    VirtOracle canonicalVirtAllows(const VirtStaleWatch &watch) const;

    /** Drive one guest watch through VirtMachine::access. */
    bool probeVirtWatch(const VirtStaleWatch &watch);

    /** The two-stage sweep twin of sweep(). */
    void sweepVirt(bool strict, const char *where, uint64_t seq);

    void recordVirtViolation(const VirtStaleWatch &watch,
                             VirtFaultOrigin origin, const char *where,
                             uint64_t seq);

    /** True iff the hart is past its ack (or initiated the window). */
    bool fenced(unsigned hart) const;

    void recordViolation(const StaleWatch &watch, const char *level,
                         const char *direction, const char *where,
                         uint64_t seq);

    SmpSystem &smp_;
    SecureMonitor &monitor_;
    std::vector<StaleWatch> watches_;
    std::vector<VirtStaleWatch> virtWatches_;

    /** Committed per-stage expectations, keyed by (hart, page base). */
    std::map<std::pair<unsigned, Addr>, Perm> guestPerm_;
    std::map<std::pair<unsigned, Addr>, Perm> gpaPerm_;

    bool windowOpen_ = false;
    unsigned windowInitiator_ = 0;
    std::vector<bool> acked_;
    /** Canonical verdict per watch, captured at WindowBegin. */
    std::vector<bool> oracle_;
    /** Same capture for the virt watches. */
    std::vector<VirtOracle> virtOracle_;

    bool failed_ = false;
    std::string failure_;

    StatGroup stats_{"stale_checker"};
    Counter statProbes_;       //!< watch probes driven (both levels)
    Counter statWindows_;      //!< shootdown windows observed
    Counter preAckStaleHits_;  //!< stale grants on not-yet-acked harts
    Counter postAckViolations_; //!< hard failures (acked / post-window)
    Counter statStaleDenies_;  //!< fail-closed mismatches (never fatal)
    Counter statPageFaultSkips_; //!< access probes voided by page faults
    Counter statQuiescentChecks_;
    Counter statVirtProbes_;         //!< guest-watch probes driven
    Counter virtPreAckStaleHits_;    //!< guest stale grants, unfenced harts
    Counter statVirtStaleDenies_;    //!< guest fail-closed mismatches
    Counter statStaleGuestOrigin_;   //!< stale grants a VS-stage perm denies
    Counter statStaleGStageOrigin_;  //!< stale grants a G-stage perm denies
    Counter statStalePmpteOrigin_;   //!< stale grants physical perms deny
    Counter statStaleExecGrants_;    //!< stale guest grants on fetches
    Counter statStaleRwGrants_;      //!< stale guest grants on loads/stores
};

/**
 * Cross-system migration oracle (DESIGN.md §12): the StaleChecker's
 * two-host sibling. During a live domain migration the two-phase
 * handoff must guarantee that at no interleaving point do *both*
 * hosts grant the migrating domain access to its memory — a
 * dual-grant window would let the domain run on two machines over
 * one logical memory image, the migration analogue of a stale
 * translation. The engine publishes every protocol step to step(),
 * and the oracle probes both monitors at two levels:
 *
 *  - monitor level: SecureMonitor::domainGrantable — would the
 *    monitor switch to / mutate the domain right now;
 *  - register level: HpmpUnit::probe on every hart of both hosts
 *    against the domain's watched pages — is any hart's live
 *    register file still granting the memory in flight.
 *
 * Verdicts (both sticky hard failures, like post-ack stale grants):
 *
 *  - both sides grant at the same step → dual-grant window;
 *  - the source still grants after the destination committed →
 *    the source's revoke leaked through the handoff.
 *
 * Probes run under FaultInjector::SuspendGuard, so the oracle never
 * consumes hits from a campaign's injection plan.
 */
class CrossSystemOracle
{
  public:
    CrossSystemOracle(SecureMonitor &src, SecureMonitor &dst);

    /** Arm the oracle for one migration of `src_id`; `regions` are
     *  the domain's GMSs (their first pages become register watches). */
    void beginMigration(DomainId src_id, const std::vector<Gms> &regions);

    /** The destination staged the domain under this id. */
    void setDestDomain(DomainId id)
    {
        dstId_ = id;
        haveDst_ = true;
    }

    /** The destination committed: source grants are now fatal. */
    void noteDestCommitted() { destCommitted_ = true; }

    /** Migration over (either way); disarm until the next begin. */
    void finishMigration();

    /** Probe both hosts and judge; called at every protocol step. */
    void step(const char *where);

    bool failed() const { return failed_; }
    const std::string &failure() const { return failure_; }

    uint64_t checks() const { return statChecks_.value(); }
    uint64_t violations() const { return statViolations_.value(); }
    uint64_t registerProbes() const { return statRegProbes_.value(); }

    /** "migrate_oracle" group: checks, violations, register probes. */
    StatGroup &stats() { return stats_; }
    void registerStats(StatRegistry &registry) { registry.add(&stats_); }

  private:
    /** Does `monitor` grant the domain its memory right now? */
    bool grants(SecureMonitor &monitor, DomainId id);

    void recordViolation(const char *what, const char *where);

    SecureMonitor &src_;
    SecureMonitor &dst_;
    DomainId srcId_ = 0;
    DomainId dstId_ = 0;
    bool active_ = false;
    bool haveDst_ = false;
    bool destCommitted_ = false;
    std::vector<Addr> pages_; //!< watched pages of the migrating domain

    bool failed_ = false;
    std::string failure_;

    StatGroup stats_{"migrate_oracle"};
    Counter statChecks_;     //!< protocol steps judged
    Counter statViolations_; //!< dual-grant / grant-after-commit hits
    Counter statRegProbes_;  //!< per-hart register probes driven
};

} // namespace hpmp

#endif // HPMP_MONITOR_STALE_CHECKER_H
