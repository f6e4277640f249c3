/**
 * @file
 * The campaign contracts, each stated once.
 *
 * Two engines drive the secure monitor: the chaos engine
 * (verify/chaos_engine.h) with a seeded random op stream, and the
 * bounded model checker (verify/harness.h) with a fixed per-hart
 * script whose every branch point is enumerated. Their op generators
 * differ on purpose; what they check does not, and lives here:
 *
 *  - SystemFixture: the system under test — an SmpSystem, its
 *    monitor, every hart in S-mode with translation off.
 *  - IpiProbe: the interleave hook. It runs the stale checker at every
 *    IPI protocol step and, where the driver says so, fires a nested
 *    monitor call from the victim hart that must bounce with
 *    LockContended.
 *  - auditOp: the per-op battery — digest-exact rollback of a failed
 *    call, cross-hart convergence, closed shootdown windows, the
 *    quiescent stale sweep and the isolation invariants.
 *  - ContainmentAudit: the RAS blast-radius verdict of one
 *    machine-check report (DESIGN.md §15).
 *  - judgeMigration: the outcome verdict of one live migration —
 *    commit, abort or stranded (DESIGN.md §12).
 *
 * Every check is read-only. The one monitor call made here is the
 * nested probe's switchTo, at exactly the protocol step where a driver
 * decides to fire it. Other calls that bump the monitor's counters
 * (measureDomain, attestDomain, switchTo, handleMachineCheck) stay in
 * the drivers, and registry lookups (domainExists, tablePeek — counted
 * as registry_lookups) are made in a fixed number per outcome, so an
 * engine's --stats-json does not depend on how its checks are shared.
 * A breach carries a stable kind string that counterexample files and
 * tests key on.
 */

#ifndef HPMP_VERIFY_CONTRACTS_H
#define HPMP_VERIFY_CONTRACTS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/smp.h"
#include "migrate/migration.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"

namespace hpmp::verify
{

/** A broken contract: a stable kind id and an account of what broke. */
struct Breach
{
    std::string kind; //!< stable id ("rollback_divergence", ...); "" = held
    std::string what; //!< human-readable account

    explicit operator bool() const { return !kind.empty(); }
};

// ---- system fixture -------------------------------------------------

/** Rocket parameters with a PMPTW-Cache of `pmptw_entries` entries. */
MachineParams fixtureParams(unsigned pmptw_entries);

/**
 * The system under test: an SmpSystem, the secure monitor on it, and
 * every hart in S-mode with translation off (bare harts access
 * physically; a campaign layer may point them at page tables later).
 */
struct SystemFixture
{
    /** Not copyable: the monitor holds the SmpSystem by reference. */
    SystemFixture(const MachineParams &mp, const SmpParams &sp,
                  IsolationScheme scheme);

    /**
     * A new domain owning the NAPOT region [base, base + bytes), RW.
     * Setup runs outside any fault plan, so a refusal panics.
     */
    DomainId addDomain(Addr base, uint64_t bytes, GmsLabel label);

    SmpSystem smp;
    SecureMonitor monitor;
};

// ---- nested-call probe ----------------------------------------------

/**
 * The interleave hook both engines install. Every IPI step goes to the
 * stale checker first. At Posted/Delivered steps — always inside a
 * monitor transaction — the driver's `decide` says whether to fire a
 * nested switchTo from the victim hart; the global monitor lock is
 * held by the initiator, so it must bounce with LockContended before
 * touching any state. The first leak is kept and ends the probing.
 */
class IpiProbe : public InterleaveHook
{
  public:
    using Decide = std::function<bool(const IpiEvent &)>;

    IpiProbe(SmpSystem &smp, SecureMonitor &monitor, StaleChecker &checker,
             Decide decide);
    IpiProbe(const IpiProbe &) = delete; // the SmpSystem holds its address
    IpiProbe &operator=(const IpiProbe &) = delete;

    void onIpiStep(const IpiEvent &event) override;

    /** Shootdown windows opened and not yet closed. */
    int openWindows() const { return openWindows_; }
    /** Nested calls that bounced as they must. */
    uint64_t bounced() const { return bounced_; }
    /** The first nested call that did not bounce ("nested_call"). */
    const Breach &breach() const { return breach_; }

  private:
    SmpSystem &smp_;
    SecureMonitor &monitor_;
    StaleChecker &checker_;
    Decide decide_;
    int openWindows_ = 0;
    uint64_t bounced_ = 0;
    Breach breach_;
};

// ---- per-op audit battery -------------------------------------------

/**
 * Every hart's rollback digest (monitor state, tables and the hart's
 * register file, CSR-write counter and guest CSRs included) into
 * `out`, one entry per hart. A failed call must restore all of them.
 */
void rollbackDigests(const SecureMonitor &monitor,
                     std::vector<uint64_t> &out);

/** Which checks of the battery run on one op; the driver decides. */
struct OpChecks
{
    /** The op's monitor call, or nullptr for an op that made none. */
    const MonitorResult *result = nullptr;
    /** rollbackDigests() from before the call, judged if it failed;
     *  nullptr = not judged on this op. */
    const std::vector<uint64_t> *pre = nullptr;
    /** Outside a window every hart's host view must be identical. */
    bool convergence = false;
    /** An injected fault fired during the call: it must not succeed. */
    bool faultFired = false;
    /** The op, for the account. */
    std::string where;
};

/**
 * The per-op battery, in a fixed order: nested calls bounced, no
 * window left open, failures typed, failed calls rolled back on every
 * hart, fired faults not swallowed, harts converged, the quiescent
 * stale sweep clean, the isolation invariants intact.
 */
Breach auditOp(SecureMonitor &monitor, StaleChecker &checker,
               const IpiProbe &probe, const OpChecks &checks);

/** The isolation invariants (monitor/invariants.h) as a breach. */
Breach auditInvariants(SecureMonitor &monitor, const std::string &where);

// ---- RAS containment verdict ----------------------------------------

/** Where planted poison landed: the blast-radius classes. */
enum class PoisonClass : uint8_t
{
    Data,     //!< an enclave's data page: exactly its owner dies
    Pmpte,    //!< a frame of a live PMP Table: rebuilt, nobody dies
    Free,     //!< an unowned frame: retired, nobody dies
    Monitor,  //!< monitor-private state: the whole host degrades
    Scrubbed, //!< found by the patrol: at most the owner dies
};

/**
 * The blast-radius contract around one handleMachineCheck() report.
 * before() captures what the verdict needs; after() judges the
 * outcome. Whatever the class, a repeat report of a retired frame is
 * an ok no-op, a report on a degraded host is a typed RasFatal denial,
 * a failed containment rolls back bit-exactly, and a successful one
 * retires the frame and kills no bystander.
 */
class ContainmentAudit
{
  public:
    explicit ContainmentAudit(SecureMonitor &monitor) : monitor_(monitor) {}

    /**
     * Call just before reporting poison at `pa`. `victim` is the
     * domain that owns the poisoned frame (Data, Pmpte) or may die for
     * it (Scrubbed); 0 = none. `table_root` is the victim table's root
     * (Pmpte): a heal must re-point it.
     *
     * Registry lookups are counted in the monitor's stats, so the
     * verdict makes exactly the lookups its checks need: one per
     * bystander, plus the victim's for Data and Pmpte.
     */
    void before(PoisonClass cls, Addr pa, DomainId victim = 0,
                Addr table_root = 0);

    /** Judge the report's outcome. A HostFatal from a Monitor or
     *  Pmpte report (out of table frames) is noted as expected. */
    Breach after(const MonitorValue<RasOutcome> &outcome);

    /**
     * A self-healed domain attests verifiably (`post`, made with
     * `nonce`) and, when the driver attested before the poison
     * (`pre`), to the same measurement.
     */
    Breach healAttestation(const MonitorValue<AttestationReport> *pre,
                           const MonitorValue<AttestationReport> &post,
                           uint64_t nonce) const;

    /** A load of poisoned `line` surfaced as a machine check naming it. */
    static Breach consumption(const AccessOutcome &out, Addr line);

    /** After a host degrade a mutating call is a typed RasFatal denial. */
    static Breach degradedCall(const MonitorResult &result);

    /** At the end: the host degraded only through an expected event. */
    Breach finish() const;

  private:
    SecureMonitor &monitor_;
    PoisonClass cls_ = PoisonClass::Data;
    Addr page_ = 0;
    DomainId victim_ = 0;
    std::vector<DomainId> live_;
    Addr oldRoot_ = 0;
    uint64_t digest_ = 0;
    bool quarantined_ = false;
    bool fatal_ = false;
    bool fatalExpected_ = false;
};

// ---- migration outcome verdict --------------------------------------

/** Bytes a committed domain's memory must hold on the destination. */
struct MemoryImage
{
    Addr base = 0;
    std::vector<uint8_t> bytes;
};

/**
 * One migration attempt of `src_id` from `src` to `dst`. The oracle
 * saw no dual-grant window. A commit leaves the domain on the
 * destination only, grantable there, with `image` (if given) intact.
 * A stranded commit leaves it staged on the destination and granted
 * nowhere. An abort restores the source digest bit-exactly and leaves
 * the domain grantable on the source.
 */
Breach judgeMigration(const MigrateResult &res, const SecureMonitor &src,
                      DomainId src_id, SecureMonitor &dst,
                      const CrossSystemOracle &oracle,
                      const MemoryImage *image = nullptr);

} // namespace hpmp::verify

#endif // HPMP_VERIFY_CONTRACTS_H
