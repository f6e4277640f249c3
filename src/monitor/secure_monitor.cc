#include "monitor/secure_monitor.h"

#include <algorithm>

#include "base/bitfield.h"
#include "base/fault_inject.h"
#include "base/hash.h"
#include "base/logging.h"
#include "base/trace.h"
#include "core/smp.h"
#include "core/virt_machine.h"

namespace hpmp
{

namespace
{

/**
 * Internal control-flow exception for monitor-call failures discovered
 * after mutation started. The transaction wrapper catches it, rolls
 * back to the pre-call state and surfaces the typed error. Never
 * escapes a monitor call.
 */
struct MonitorAbort
{
    MonitorError code;
    std::string msg;
};

} // namespace

const char *
toString(MonitorError error)
{
    switch (error) {
      case MonitorError::None: return "none";
      case MonitorError::NoSuchDomain: return "no-such-domain";
      case MonitorError::NoSuchGms: return "no-such-gms";
      case MonitorError::BadArgument: return "bad-argument";
      case MonitorError::OverlapDomain: return "overlap-domain";
      case MonitorError::OverlapMonitor: return "overlap-monitor";
      case MonitorError::PermExceedsOwner: return "perm-exceeds-owner";
      case MonitorError::OutOfPmpEntries: return "out-of-pmp-entries";
      case MonitorError::OutOfTableFrames: return "out-of-table-frames";
      case MonitorError::InjectedFault: return "injected-fault";
      case MonitorError::LockContended: return "lock-contended";
      case MonitorError::StaleHandle: return "stale-handle";
      case MonitorError::DomainMigrating: return "domain-migrating";
      case MonitorError::RasFatal: return "ras-fatal";
      case MonitorError::QuarantinedPage: return "quarantined-page";
    }
    return "?";
}

const char *
toString(RasOutcome outcome)
{
    switch (outcome) {
      case RasOutcome::AlreadyQuarantined: return "already-quarantined";
      case RasOutcome::QuarantinedFree: return "quarantined-free";
      case RasOutcome::ContainedDomain: return "contained-domain";
      case RasOutcome::HealedTable: return "healed-table";
      case RasOutcome::HostFatal: return "host-fatal";
    }
    return "?";
}

/**
 * Transaction guard for one monitor call.
 *
 * On construction it snapshots every piece of state a call can touch:
 * the scalar cursors and the HPMP register file (+ CSR-write counter).
 * Per-domain GMS lists and PMP-table growth metadata are captured
 * *lazily* through touch(): a monitor call mutates at most two domains
 * (its target, plus the current domain via applyLayout), so
 * snapshotting every domain up front — the original design — would
 * make each call O(live domains), which fleet-scale registries cannot
 * afford. While the transaction is active every pmpte store of a
 * touched domain is journaled (old value per slot), including stores
 * into tables created mid-call. rollback() replays the journal in
 * reverse and restores the snapshots, leaving monitor + HPMP + table
 * state bit-identical to the pre-call state —
 * SecureMonitor::stateDigest() is the test oracle for that claim.
 */
struct SecureMonitor::Txn
{
    explicit Txn(SecureMonitor &m) : m_(m)
    {
        panic_if(m_.activeTxn_, "nested monitor transaction");
        m_.beginOp();
        current_ = m_.current_;
        tableFrameNext_ = m_.tableFrameNext_;
        tableWritesTotal_ = m_.tableWritesTotal_;
        tableWritesAgg_ = m_.tableWritesAgg_;
        heatClock_ = m_.heatClock_;
        coalescedOpen_ = m_.coalescedOpen_;
        coalescedCommits_ = m_.coalescedCommits_;
        lastCommitter_ = m_.lastCommitter_;
        // A failing call may abort after partial shootdowns, so
        // rollback must be able to restore *every* hart's register
        // file, not just the canonical one.
        SmpSystem &smp = m_.smp_;
        for (unsigned h = 0; h < smp.numHarts(); ++h)
            hartSnaps_.push_back(smp.hart(h).hpmp().takeSnapshot());
        // Virt-enabled: capture every hart's guest CSR state too (hart
        // 0 included), so a call aborting after a partial guest
        // shootdown restores the virt view as well.
        if (smp.virtEnabled()) {
            for (unsigned h = 0; h < smp.numHarts(); ++h) {
                VirtMachine &vm = smp.virtHart(h);
                virtSnaps_.push_back(
                    {vm.vsatpRoot(), vm.hgatpRoot(), vm.guestPriv()});
            }
        }
        m_.activeTxn_ = this;
    }

    /**
     * Capture one domain the call is about to mutate: GMS list and
     * table-growth metadata, plus journaling of its pmpte stores.
     * Idempotent; the touched set stays <= 2 per call.
     */
    void
    touch(DomainId id)
    {
        for (const auto &snap : domSnaps_) {
            if (snap.id == id)
                return;
        }
        Domain *dom = m_.domains_.find(id);
        panic_if(!dom, "txn touch of unknown domain %u", id);
        domSnaps_.push_back(
            {id, dom->gmsList, dom->table != nullptr,
             dom->table ? dom->table->tablePages().size() : 0,
             dom->table ? dom->table->entryWrites() : 0,
             dom->migrating});
        if (dom->table)
            dom->table->setJournal(&journal_);
    }

    ~Txn()
    {
        // An exception escaping the call body (only injected faults in
        // layers below the monitor can cause this) still rolls back.
        if (!done_)
            rollback();
        for (const auto &snap : domSnaps_) {
            Domain *dom = m_.domains_.find(snap.id);
            if (dom && dom->table)
                dom->table->setJournal(nullptr);
        }
        m_.activeTxn_ = nullptr;
    }

    /** Keep an erased domain so rollback can reinsert it intact. */
    void
    stashErased(DomainId id, Domain &&dom)
    {
        stashed_.emplace_back(id, std::move(dom));
    }

    /**
     * Keep a PMP-table object the call swapped out wholesale
     * (self-heal): rollback re-points the domain at the original
     * before the metadata rollback runs, since touch() snapshotted
     * *that* object, not its replacement.
     */
    void
    stashTable(DomainId id, std::unique_ptr<PmpTable> table)
    {
        stashedTables_.emplace_back(id, std::move(table));
    }

    MonitorResult
    commit(bool flushed, bool degraded = false)
    {
        done_ = true;
        MonitorResult result;
        result.cycles = m_.opCycles(flushed);
        result.degraded = degraded;
        return result;
    }

    MonitorResult
    abort(MonitorError code, std::string msg)
    {
        rollback();
        done_ = true;
        return MonitorResult::fail(code, std::move(msg));
    }

    PmpTable::Journal journal_;

  private:
    struct DomainSnap
    {
        DomainId id;
        std::vector<Gms> gmsList;
        bool hadTable;
        size_t tablePages;
        uint64_t entryWrites;
        bool migrating;
    };

    void
    rollback()
    {
        // 1. Undo pmpte stores newest-first: restores surviving tables
        //    and returns pages allocated mid-call to all-zero bytes.
        for (auto it = journal_.rbegin(); it != journal_.rend(); ++it)
            m_.machine_.mem().write64(it->slot, it->oldValue);
        journal_.clear();

        // 2. Reinsert domains the call erased (registry slot revived
        //    with its pre-call generation — no tag was spent).
        for (auto &[id, dom] : stashed_)
            m_.domains_.restoreErased(id, std::move(dom));
        stashed_.clear();

        // 2b. Re-point domains whose table object was swapped out
        //     mid-call (self-heal) back at the original: step 3's
        //     metadata rollback must run against the object touch()
        //     snapshotted. The abandoned replacement is destroyed
        //     here; its frames were already zeroed by the journal
        //     replay and are reclaimed by the cursor restore in 4.
        for (auto &[id, table] : stashedTables_) {
            Domain *dom = m_.domains_.find(id);
            panic_if(!dom, "rollback lost healed domain %u", id);
            dom->table = std::move(table);
        }
        stashedTables_.clear();

        // 3. Restore per-domain state of the touched set; drop tables
        //    created mid-call (their frames are reclaimed by the
        //    cursor restore in 4).
        for (auto &snap : domSnaps_) {
            Domain *dom = m_.domains_.find(snap.id);
            panic_if(!dom, "rollback lost domain %u", snap.id);
            dom->gmsList = snap.gmsList;
            dom->migrating = snap.migrating;
            if (!snap.hadTable) {
                dom->table.reset();
            } else {
                dom->table->rollbackMeta(snap.tablePages,
                                         snap.entryWrites);
            }
        }

        // 4. Scalars, then every hart's register file (flushes its
        //    PMPTW-Cache).
        m_.current_ = current_;
        m_.tableFrameNext_ = tableFrameNext_;
        m_.tableWritesTotal_ = tableWritesTotal_;
        m_.tableWritesAgg_ = tableWritesAgg_;
        m_.heatClock_ = heatClock_;
        SmpSystem &smp = m_.smp_;
        for (unsigned h = 0; h < smp.numHarts(); ++h)
            smp.hart(h).hpmp().restoreSnapshot(hartSnaps_[h]);

        // 5. Nothing ran between the mid-call programming and this
        //    restore, but mirror the hardware contract anyway: any
        //    isolation-state change ends with TLB synchronization —
        //    on every hart, since partial shootdowns may have synced
        //    (and now un-synced) some of them.
        for (unsigned h = 0; h < smp.numHarts(); ++h)
            smp.hart(h).sfenceVma();
        // Guest view: put back the pre-call vsatp/hgatp roots and drop
        // every cached translation (combined, G-stage, guest PWC) on
        // each hart — restoreVirtState fences locally without
        // re-entering the shootdown path.
        for (unsigned h = 0; h < unsigned(virtSnaps_.size()); ++h) {
            smp.virtHart(h).restoreVirtState(virtSnaps_[h].vsatp,
                                             virtSnaps_[h].hgatp,
                                             virtSnaps_[h].priv);
        }
        const unsigned self = smp.currentHart();
        if (m_.ipiWindowOpen_) {
            // The aborted shootdown's window closes here: every hart
            // is back on (and fenced to) the pre-call state, which is
            // what checkers verify at window-end.
            m_.ipiWindowOpen_ = false;
            smp.notifyStep(
                {IpiPhase::WindowEnd, self, self, m_.ipiWindowSeq_});
        }
        if (m_.coalescedOpen_ && !coalescedOpen_) {
            // This call's deferred commit opened the coalesced window
            // and then aborted: nothing is pending, so the window
            // closes with every hart on the pre-call state.
            m_.coalescedOpen_ = false;
            smp.notifyStep(
                {IpiPhase::WindowEnd, self, self, m_.coalescedSeq_});
        }
        // A window opened by *earlier* commits stays open: their state
        // is committed and still awaits the shared flush.
        m_.coalescedCommits_ = coalescedCommits_;
        m_.lastCommitter_ = lastCommitter_;
    }

    SecureMonitor &m_;
    bool done_ = false;
    DomainId current_;
    Addr tableFrameNext_;
    uint64_t tableWritesTotal_;
    uint64_t tableWritesAgg_;
    uint64_t heatClock_;
    bool coalescedOpen_;
    uint64_t coalescedCommits_;
    unsigned lastCommitter_;
    struct VirtSnap
    {
        Addr vsatp;
        Addr hgatp;
        PrivMode priv;
    };

    std::vector<HpmpUnit::Snapshot> hartSnaps_; //!< every hart, 0 first
    std::vector<VirtSnap> virtSnaps_; //!< all harts, virt-enabled only
    std::vector<DomainSnap> domSnaps_;
    std::vector<std::pair<DomainId, Domain>> stashed_;
    std::vector<std::pair<DomainId, std::unique_ptr<PmpTable>>>
        stashedTables_;
};

template <typename Fn>
MonitorResult
SecureMonitor::transact(const char *callName, Fn &&body)
{
    // One monitor call in flight at a time. A hart whose trap races
    // another hart's transaction bounces with a typed error before any
    // snapshot or mutation.
    const unsigned initiator = smp_.currentHart();
    if (!smp_.tryAcquireMonitorLock(initiator)) {
        return failCall(MonitorError::LockContended,
                        "monitor lock held by hart " +
                            std::to_string(smp_.lockOwner()));
    }
    // Root (or, during a migration phase, child) span for the whole
    // call: shootdown-window and per-sibling IPI spans open under it,
    // and an abort's unwind closes it via RAII.
    ScopedSpan span(TraceFlag::Monitor, callName, initiator);
    MonitorResult result;
    bool rolled_back = false;
    {
        Txn txn(*this);
        try {
            result = body(txn);
        } catch (const MonitorAbort &abort) {
            result = txn.abort(abort.code, abort.msg);
            rolled_back = true;
        } catch (const InjectedFault &fault) {
            result = txn.abort(MonitorError::InjectedFault,
                               std::string("injected fault at ") +
                                   fault.site);
            rolled_back = true;
        }
    }
    smp_.releaseMonitorLock(initiator);
    noteResult(result.ok, result.code, result.cycles, result.degraded,
               rolled_back);
    return result;
}

void
SecureMonitor::noteResult(bool ok, MonitorError code, uint64_t cycles,
                          bool degraded, bool rolled_back) const
{
    ++statCalls_;
    if (ok) {
        ++statOk_;
        statCallCycles_.sample(cycles);
    } else {
        ++statFailed_;
        ++statErrors_[unsigned(code) < kNumMonitorErrors ? unsigned(code)
                                                         : 0];
        DPRINTF(Monitor, "call failed: %s\n", toString(code));
    }
    if (rolled_back)
        ++statRollbacks_;
    if (degraded)
        ++statDegraded_;
    TRACE_EVENT(Monitor, statCalls_.value(), cycles, "monitor_call",
                uint64_t(code), uint64_t(degraded));
}

MonitorResult
SecureMonitor::failCall(MonitorError code, std::string why) const
{
    noteResult(false, code, 0, false, false);
    return MonitorResult::fail(code, std::move(why));
}

SecureMonitor::SecureMonitor(SmpSystem &smp, const MonitorConfig &config)
    : smp_(smp),
      machine_(smp.hart(0)),
      config_(config)
{
    fatal_if(!isPowerOf2(config.monitorSize) ||
                 config.monitorBase % config.monitorSize,
             "monitor region must be NAPOT");

    stats_.add("calls", &statCalls_);
    stats_.add("ok", &statOk_);
    stats_.add("failed", &statFailed_);
    stats_.add("rollbacks", &statRollbacks_);
    stats_.add("degraded", &statDegraded_);
    stats_.add("demotions", &statDemotions_);
    stats_.add("call_cycles", &statCallCycles_);
    stats_.add("csr_writes_per_call", &statCsrPerCall_);
    stats_.add("table_writes_per_call", &statTableWritesPerCall_);
    stats_.add("ipi_shootdowns", &statIpiShootdowns_);
    stats_.add("ipi_sent", &statIpiSent_);
    stats_.add("ipi_acked", &statIpiAcked_);
    stats_.add("ipi_lost", &statIpiLost_);
    stats_.add("ipi_cycles", &statIpiCycles_);
    stats_.add("hfence_shootdowns", &statHfenceShootdowns_);
    stats_.add("hfence_sent", &statHfenceSent_);
    stats_.add("hfence_acked", &statHfenceAcked_);
    stats_.add("hfence_lost", &statHfenceLost_);
    stats_.add("hfence_cycles", &statHfenceCycles_);
    stats_.add("coalesced_windows", &statCoalescedWindows_);
    stats_.add("commits_per_window", &statCommitsPerWindow_);
    stats_.add("ipi_post", &statIpiPost_);
    stats_.add("ipi_retries", &statIpiRetries_);
    stats_.add("ipi_elided", &statIpiElided_);
    stats_.add("ras.reports", &statRasReports_);
    stats_.add("ras.quarantines", &statRasQuarantines_);
    stats_.add("ras.contained_domains", &statRasContained_);
    stats_.add("ras.heals", &statRasHeals_);
    stats_.add("ras.fatal", &statRasFatal_);
    stats_.add("ras.scrubbed_pages", &statRasScrubbed_);
    domains_.registerStats(stats_);
    for (unsigned e = 1; e < kNumMonitorErrors; ++e) {
        stats_.add(std::string("errors.") + toString(MonitorError(e)),
                   &statErrors_[e]);
    }
    // PMP Table frames are carved from the top of the monitor region.
    tableFrameEnd_ = config.monitorBase + config.monitorSize;
    tableFrameNext_ = tableFrameEnd_ - config.monitorSize / 2;

    // Entry 0: the monitor's private memory. S/U get no access; the
    // monitor itself runs in M-mode and is unconstrained.
    machine_.hpmp().programSegment(0, config.monitorBase,
                                   config.monitorSize, Perm::none());

    // The host is domain 0.
    const DomainId host = createDomain();
    panic_if(host != 0, "host must be domain 0");
    current_ = 0;

    // Boot-time convergence: every hart starts with the canonical
    // register file (entry 0 = the monitor region), not just hart 0.
    // No IPI accounting — this is reset, not a runtime shootdown.
    for (unsigned h = 1; h < smp.numHarts(); ++h) {
        smp.hart(h).hpmp().syncRegsFrom(machine_.hpmp());
        smp.hart(h).sfenceVma();
        smp.hart(h).hpmp().flushCache();
    }
}

SecureMonitor::Domain &
SecureMonitor::domain(DomainId id)
{
    Domain *dom = domains_.find(id);
    panic_if(!dom, "no such domain %u", id);
    return *dom;
}

const SecureMonitor::Domain &
SecureMonitor::domain(DomainId id) const
{
    const Domain *dom = domains_.find(id);
    panic_if(!dom, "no such domain %u", id);
    return *dom;
}

SecureMonitor::Domain *
SecureMonitor::findDomain(DomainId id)
{
    return domains_.find(id);
}

MonitorError
SecureMonitor::lookupError(DomainId id) const
{
    return domains_.stale(id) ? MonitorError::StaleHandle
                              : MonitorError::NoSuchDomain;
}

MonitorResult
SecureMonitor::failNoDomain(DomainId id) const
{
    const MonitorError code = lookupError(id);
    return failCall(code,
                    code == MonitorError::StaleHandle
                        ? "stale domain handle: the id was recycled"
                        : "no such domain");
}

bool
SecureMonitor::domainExists(DomainId id) const
{
    return domains_.find(id) != nullptr;
}

std::vector<DomainId>
SecureMonitor::domainIds() const
{
    return domains_.ids();
}

const PmpTable *
SecureMonitor::tablePeek(DomainId id) const
{
    const Domain *dom = domains_.find(id);
    return dom ? dom->table.get() : nullptr;
}

Addr
SecureMonitor::allocTableFrame(unsigned npages)
{
    if (FAULT_POINT("monitor.alloc_pmpte")) {
        throw MonitorAbort{MonitorError::InjectedFault,
                           "injected fault at monitor.alloc_pmpte"};
    }
    const Addr base = tableFrameNext_;
    if (base + npages * kPageSize > tableFrameEnd_) {
        throw MonitorAbort{MonitorError::OutOfTableFrames,
                           "monitor out of PMP-table frames"};
    }
    tableFrameNext_ += npages * kPageSize;
    return base;
}

PmpTable &
SecureMonitor::tableOf(DomainId id)
{
    Domain &dom = domain(id);
    if (!dom.table) {
        dom.table = std::make_unique<PmpTable>(
            machine_.mem(),
            [this](unsigned npages) { return allocTableFrame(npages); },
            config_.pmptLevels);
        dom.table->setWriteAggregate(&tableWritesAgg_);
        // A table created mid-transaction journals its stores too, so
        // the replay below is rolled back along with everything else.
        if (activeTxn_)
            dom.table->setJournal(&activeTxn_->journal_);
        // Replay existing GMSs into the fresh table.
        for (const Gms &gms : dom.gmsList)
            writeGmsToTable(dom, gms);
    }
    return *dom.table;
}

void
SecureMonitor::writeGmsToTable(Domain &dom, const Gms &gms)
{
    panic_if(!dom.table, "writeGmsToTable without a table");
    dom.table->setPerm(gms.base, gms.size, gms.perm, config_.hugePmpte);
}

unsigned
SecureMonitor::segmentBudget() const
{
    const unsigned entries = machine_.hpmp().regs().numEntries();
    // Entry 0 is the monitor; table mode consumes two entries.
    switch (config_.scheme) {
      case IsolationScheme::Pmp:
      case IsolationScheme::None:
        return entries - 1;
      case IsolationScheme::PmpTable:
        return 0;
      case IsolationScheme::Hpmp:
        return entries - 3;
    }
    return 0;
}

void
SecureMonitor::beginOp()
{
    pendingIpiCycles_ = 0;
    pendingHfenceCycles_ = 0;
    csrSnapshot_ = machine_.hpmp().csrWrites();
    // The aggregate counts every pmpte store ever (live and destroyed
    // tables alike), so the per-call delta is one subtraction — the
    // old walk over every domain's table was O(N) per call.
    tableWriteSnapshot_ = tableWritesAgg_;
}

uint64_t
SecureMonitor::opCycles(bool flushed)
{
    const uint64_t csr_delta = machine_.hpmp().csrWrites() - csrSnapshot_;
    const uint64_t table_delta = tableWritesAgg_ - tableWriteSnapshot_;
    statCsrPerCall_.sample(csr_delta);
    statTableWritesPerCall_.sample(table_delta);

    uint64_t cycles = config_.costs.trapCycles;
    cycles += csr_delta * config_.costs.csrWriteCycles;
    cycles += table_delta * config_.costs.tableWriteCycles;
    if (flushed)
        cycles += config_.costs.flushCycles;
    if (pendingIpiCycles_ > 0) {
        cycles += pendingIpiCycles_;
        statIpiCycles_.sample(pendingIpiCycles_);
    }
    if (pendingHfenceCycles_ > 0) {
        cycles += pendingHfenceCycles_;
        statHfenceCycles_.sample(pendingHfenceCycles_);
    }
    return cycles;
}

DomainId
SecureMonitor::createDomain()
{
    return domains_.create();
}

MonitorResult
SecureMonitor::destroyDomain(DomainId id)
{
    if (rasFatal_)
        return failRasFatal();
    if (id == 0) {
        return failCall(MonitorError::BadArgument,
                                   "cannot destroy the host domain");
    }
    Domain *dom = domains_.find(id);
    if (!dom)
        return failNoDomain(id);
    // Captured before the erase: once the transaction commits the
    // domain object is gone, and the freed frames get scrubbed so the
    // next owner reads zeros (never the dead domain's data). The
    // table frames die with the domain too — bump-allocated monitor
    // frames are never reissued, so their backing can be dropped.
    const std::vector<Gms> freed = dom->gmsList;
    const std::vector<Addr> deadTableFrames =
        dom->table ? dom->table->tablePages() : std::vector<Addr>{};
    MonitorResult result = transact("destroyDomain", [&](Txn &txn) {
        if (FAULT_POINT("monitor.destroy_domain")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.destroy_domain"};
        }
        if (dom->table)
            tableWritesTotal_ += dom->table->entryWrites();
        Domain erased = domains_.erase(id);
        txn.stashErased(id, std::move(erased));
        bool flushed = false;
        bool degraded = false;
        if (current_ == id) {
            // Fall back to the host and reprogram immediately: the
            // destroyed domain's layout must not stay live in the
            // registers until the next explicit switch.
            current_ = 0;
            degraded = applyLayout();
            flushed = true;
        }
        return txn.commit(flushed, degraded);
    });
    if (result.ok) {
        scrubFreedGms(freed);
        for (const Addr frame : deadTableFrames) {
            if (!pageQuarantined(frame))
                machine_.mem().releasePage(frame);
        }
    }
    return result;
}

MonitorResult
SecureMonitor::addGms(DomainId id, const Gms &gms)
{
    if (rasFatal_)
        return failRasFatal();
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }
    if (gms.size == 0 || gms.base % kPageSize || gms.size % kPageSize)
        return failCall(MonitorError::BadArgument,
                                   "GMS must be page-granular");
    if (gms.base + gms.size < gms.base ||
        gms.base + gms.size > machine_.params().physMemBytes) {
        return failCall(MonitorError::BadArgument,
                                   "GMS beyond physical memory");
    }

    // No overlap with any domain's existing GMSs: memory ownership is
    // exclusive (the host must release regions before granting them).
    bool overlaps = false;
    domains_.forEach([&](DomainId, const Domain &other) {
        for (const Gms &existing : other.gmsList) {
            if (existing.base < gms.base + gms.size &&
                gms.base < existing.base + existing.size) {
                overlaps = true;
                return;
            }
        }
    });
    if (overlaps) {
        return failCall(MonitorError::OverlapDomain,
                                   "GMS overlaps a domain region");
    }
    // The monitor region is never handed out.
    if (gms.base < config_.monitorBase + config_.monitorSize &&
        config_.monitorBase < gms.base + gms.size) {
        return failCall(MonitorError::OverlapMonitor,
                                   "GMS overlaps the monitor");
    }
    // Retired frames never re-enter circulation: a poisoned page
    // stays out of every future grant.
    if (!quarantine_.empty()) {
        for (Addr p = gms.base; p < gms.base + gms.size; p += kPageSize) {
            if (pageQuarantined(p)) {
                return failCall(MonitorError::QuarantinedPage,
                                "GMS overlaps a quarantined page");
            }
        }
    }

    return transact("addGms", [&](Txn &txn) {
        txn.touch(id);
        if (FAULT_POINT("monitor.add_gms")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.add_gms"};
        }
        dom->gmsList.push_back(gms);
        if (gms.label == GmsLabel::Fast)
            dom->gmsList.back().heat = ++heatClock_;

        // Cache-based management: every GMS always enters the table
        // (when the scheme has one); segments only mirror the fast
        // ones.
        if (config_.scheme == IsolationScheme::PmpTable ||
            config_.scheme == IsolationScheme::Hpmp) {
            tableOf(id);
            writeGmsToTable(*dom, dom->gmsList.back());
        }

        bool flushed = false;
        bool degraded = false;
        if (id == current_) {
            degraded = applyLayout();
            flushed = true;
        }
        return txn.commit(flushed, degraded);
    });
}

MonitorResult
SecureMonitor::removeGms(DomainId id, Addr base)
{
    if (rasFatal_)
        return failRasFatal();
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }
    auto it = dom->gmsList.begin();
    for (; it != dom->gmsList.end(); ++it) {
        if (it->base == base)
            break;
    }
    if (it == dom->gmsList.end())
        return failCall(MonitorError::NoSuchGms,
                                   "no GMS at this base");

    return transact("removeGms", [&](Txn &txn) {
        txn.touch(id);
        if (FAULT_POINT("monitor.remove_gms")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.remove_gms"};
        }
        if (dom->table)
            dom->table->setPerm(it->base, it->size, Perm::none());
        dom->gmsList.erase(it);

        bool flushed = false;
        bool degraded = false;
        if (id == current_) {
            degraded = applyLayout();
            flushed = true;
        }
        return txn.commit(flushed, degraded);
    });
}

MonitorResult
SecureMonitor::setLabel(DomainId id, Addr base, GmsLabel label)
{
    if (rasFatal_)
        return failRasFatal();
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }
    for (Gms &gms : dom->gmsList) {
        if (gms.base != base)
            continue;
        return transact("setLabel", [&](Txn &txn) {
            txn.touch(id);
            if (FAULT_POINT("monitor.set_label")) {
                throw MonitorAbort{MonitorError::InjectedFault,
                                   "injected fault at monitor.set_label"};
            }
            gms.label = label;
            if (label == GmsLabel::Fast)
                gms.heat = ++heatClock_;
            // Labels only affect which GMSs sit in segment entries:
            // registers change, tables do not (§5, cache-based mgmt).
            bool flushed = false;
            bool degraded = false;
            if (id == current_) {
                degraded = applyLayout();
                flushed = true;
            }
            return txn.commit(flushed, degraded);
        });
    }
    return failCall(MonitorError::NoSuchGms,
                               "no GMS at this base");
}

MonitorResult
SecureMonitor::setPerm(DomainId id, Addr base, Perm perm)
{
    if (rasFatal_)
        return failRasFatal();
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }
    for (Gms &gms : dom->gmsList) {
        if (gms.base != base)
            continue;
        if (gms.shared) {
            // Narrowing the owner's copy would leave peers holding a
            // wider permission than the owner — revoke the share
            // first, then change the permission.
            return failCall(
                MonitorError::BadArgument,
                "cannot change the permission of a shared GMS");
        }
        return transact("setPerm", [&](Txn &txn) {
            txn.touch(id);
            if (FAULT_POINT("monitor.set_perm")) {
                throw MonitorAbort{MonitorError::InjectedFault,
                                   "injected fault at monitor.set_perm"};
            }
            gms.perm = perm;
            if (dom->table)
                writeGmsToTable(*dom, gms);
            bool flushed = false;
            bool degraded = false;
            if (id == current_) {
                degraded = applyLayout();
                flushed = true;
            }
            return txn.commit(flushed, degraded);
        });
    }
    return failCall(MonitorError::NoSuchGms,
                               "no GMS at this base");
}

MonitorResult
SecureMonitor::shareGms(DomainId owner, Addr base, DomainId peer,
                        Perm perm)
{
    if (rasFatal_)
        return failRasFatal();
    if (owner == peer)
        return failCall(MonitorError::BadArgument,
                                   "cannot share with self");
    Domain *own = findDomain(owner);
    Domain *dst = findDomain(peer);
    if (!own || !dst)
        return failNoDomain(own ? peer : owner);
    if (own->migrating || dst->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }

    for (Gms &gms : own->gmsList) {
        if (gms.base != base)
            continue;
        if ((perm.r && !gms.perm.r) || (perm.w && !gms.perm.w) ||
            (perm.x && !gms.perm.x)) {
            return failCall(
                MonitorError::PermExceedsOwner,
                "shared permission exceeds the owner's");
        }
        for (const Gms &existing : dst->gmsList) {
            if (existing.base < gms.base + gms.size &&
                gms.base < existing.base + existing.size) {
                return failCall(
                    MonitorError::OverlapDomain,
                    "peer already maps an overlapping region");
            }
        }
        return transact("shareGms", [&](Txn &txn) {
            txn.touch(owner);
            txn.touch(peer);
            if (FAULT_POINT("monitor.share_gms")) {
                throw MonitorAbort{MonitorError::InjectedFault,
                                   "injected fault at monitor.share_gms"};
            }
            gms.shared = true;
            Gms shared_view = gms;
            shared_view.perm = perm;
            shared_view.label = GmsLabel::Slow;
            shared_view.heat = 0;
            dst->gmsList.push_back(shared_view);
            if (config_.scheme == IsolationScheme::PmpTable ||
                config_.scheme == IsolationScheme::Hpmp) {
                tableOf(peer);
                writeGmsToTable(*dst, dst->gmsList.back());
            }
            bool flushed = false;
            bool degraded = false;
            if (peer == current_ || owner == current_) {
                degraded = applyLayout();
                flushed = true;
            }
            return txn.commit(flushed, degraded);
        });
    }
    return failCall(MonitorError::NoSuchGms,
                               "no GMS at this base");
}

MonitorValue<MerkleHash>
SecureMonitor::measureDomain(DomainId id) const
{
    const Domain *dom = domains_.find(id);
    if (!dom) {
        const MonitorError code = lookupError(id);
        noteResult(false, code, 0, false, false);
        return MonitorValue<MerkleHash>::fail(
            code, code == MonitorError::StaleHandle
                      ? "stale domain handle: the id was recycled"
                      : "no such domain");
    }
    MonitorValue<MerkleHash> result;
    result.value = 0x4d4541535552u; // "MEASUR"
    for (const Gms &gms : dom->gmsList) {
        result.value = Attestor::fold(
            result.value,
            Attestor::measure(machine_.mem(), gms.base, gms.size));
    }
    noteResult(true, MonitorError::None, 0, false, false);
    return result;
}

MonitorValue<AttestationReport>
SecureMonitor::attestDomain(DomainId id, uint64_t nonce) const
{
    // Attestation is read-only: an injected fault fails the call
    // before any measurement leaks, with nothing to roll back.
    if (FAULT_POINT("monitor.attest")) {
        noteResult(false, MonitorError::InjectedFault, 0, false, false);
        return MonitorValue<AttestationReport>::fail(
            MonitorError::InjectedFault,
            "injected fault at monitor.attest");
    }
    const MonitorValue<MerkleHash> measure = measureDomain(id);
    if (!measure.ok) {
        return MonitorValue<AttestationReport>::fail(measure.code,
                                                     measure.error);
    }
    MonitorValue<AttestationReport> result;
    result.value = attestor_.sign(measure.value, nonce);
    return result;
}

MonitorResult
SecureMonitor::hintHotRegion(DomainId id, Addr base, uint64_t size)
{
    if (rasFatal_)
        return failRasFatal();
    if (!isPowerOf2(size) || size < kPageSize || base % size != 0)
        return failCall(MonitorError::BadArgument,
                                   "hot region must be NAPOT");

    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }
    for (size_t i = 0; i < dom->gmsList.size(); ++i) {
        Gms covering = dom->gmsList[i];
        if (!(covering.base <= base &&
              base + size <= covering.base + covering.size)) {
            continue;
        }
        if (covering.shared) {
            // Splitting would desynchronize the owner's view from the
            // peers' (they keep the unsplit region), breaking the
            // shared-region auditing invariant.
            return failCall(
                MonitorError::BadArgument,
                "cannot split a shared GMS");
        }
        if (covering.base == base && covering.size == size)
            return setLabel(id, base, GmsLabel::Fast);

        return transact("hintHotRegion", [&](Txn &txn) {
            txn.touch(id);
            if (FAULT_POINT("monitor.hint")) {
                throw MonitorAbort{MonitorError::InjectedFault,
                                   "injected fault at monitor.hint"};
            }
            // Split into [left][hot][right]; permissions unchanged, so
            // the table is untouched (registers only — the cheap path).
            dom->gmsList.erase(dom->gmsList.begin() + long(i));
            if (covering.base < base) {
                dom->gmsList.push_back(Gms{covering.base,
                                           base - covering.base,
                                           covering.perm, covering.label,
                                           covering.shared,
                                           covering.heat});
            }
            dom->gmsList.push_back(Gms{base, size, covering.perm,
                                       GmsLabel::Fast, covering.shared,
                                       ++heatClock_});
            const Addr end = base + size;
            const Addr cov_end = covering.base + covering.size;
            if (end < cov_end) {
                dom->gmsList.push_back(Gms{end, cov_end - end,
                                           covering.perm, covering.label,
                                           covering.shared,
                                           covering.heat});
            }

            bool flushed = false;
            bool degraded = false;
            if (id == current_) {
                degraded = applyLayout();
                flushed = true;
            }
            return txn.commit(flushed, degraded);
        });
    }
    return failCall(MonitorError::NoSuchGms,
                               "no GMS covers the hot region");
}

MonitorResult
SecureMonitor::switchTo(DomainId id)
{
    if (rasFatal_)
        return failRasFatal();
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        // The revoke half of a migration suspend: the domain cannot be
        // scheduled onto this host while its memory is in flight.
        return failCall(MonitorError::DomainMigrating,
                        "domain is suspended for migration");
    }
    return transact("switchTo", [&](Txn &txn) {
        if (FAULT_POINT("monitor.switch")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.switch"};
        }
        current_ = id;
        DPRINTF(Monitor, "switchTo domain=%u\n", id);
        const bool degraded = applyLayout();
        return txn.commit(true, degraded);
    });
}

MonitorResult
SecureMonitor::suspendDomain(DomainId id)
{
    if (rasFatal_)
        return failRasFatal();
    if (id == 0) {
        return failCall(MonitorError::BadArgument,
                        "cannot migrate the host domain");
    }
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (dom->migrating) {
        return failCall(MonitorError::DomainMigrating,
                        "domain is already migrating");
    }
    if (current_ == id) {
        // Quiesce order matters: the migration engine switches this
        // host to domain 0 *before* suspending, so the suspend itself
        // flips one flag — no register or pmpte write — and an abort's
        // resumeDomain() restores a bit-identical stateDigest.
        return failCall(MonitorError::BadArgument,
                        "suspending the running domain: switch away "
                        "first (quiesce before revoke)");
    }
    return transact("suspendDomain", [&](Txn &txn) {
        txn.touch(id);
        if (FAULT_POINT("monitor.suspend")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.suspend"};
        }
        dom->migrating = true;
        DPRINTF(Monitor, "suspend domain=%u for migration\n", id);
        return txn.commit(false);
    });
}

MonitorResult
SecureMonitor::resumeDomain(DomainId id)
{
    if (rasFatal_)
        return failRasFatal();
    Domain *dom = findDomain(id);
    if (!dom)
        return failNoDomain(id);
    if (!dom->migrating) {
        return failCall(MonitorError::BadArgument,
                        "domain is not suspended for migration");
    }
    return transact("resumeDomain", [&](Txn &txn) {
        txn.touch(id);
        if (FAULT_POINT("monitor.resume")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.resume"};
        }
        dom->migrating = false;
        DPRINTF(Monitor, "resume domain=%u after migration abort\n", id);
        return txn.commit(false);
    });
}

bool
SecureMonitor::domainMigrating(DomainId id) const
{
    const Domain *dom = domains_.find(id);
    return dom && dom->migrating;
}

bool
SecureMonitor::domainGrantable(DomainId id) const
{
    const Domain *dom = domains_.find(id);
    return dom && dom->alive && !dom->migrating;
}

bool
SecureMonitor::pageQuarantined(Addr pa) const
{
    return quarantine_.count(pa & ~Addr(kPageSize - 1)) != 0;
}

void
SecureMonitor::quarantinePage(Addr pa)
{
    const Addr page = pa & ~Addr(kPageSize - 1);
    if (!quarantine_.insert(page).second)
        return;
    ++statRasQuarantines_;
    // Retire the frame: backing dropped, poison bits kept, so later
    // touches keep machine-checking instead of reading fresh zeros
    // where the lost data used to be.
    machine_.mem().releasePage(page);
    DPRINTF(Monitor, "quarantine page %#lx\n", page);
}

void
SecureMonitor::enterRasFatal(Addr pa)
{
    rasFatal_ = true;
    ++statRasFatal_;
    DPRINTF(Monitor, "RAS-fatal: uncontainable poison at %#lx\n", pa);
}

MonitorResult
SecureMonitor::failRasFatal() const
{
    return failCall(MonitorError::RasFatal,
                    "host degraded by an uncontained memory error");
}

void
SecureMonitor::scrubFreedGms(const std::vector<Gms> &freed)
{
    PhysMem &mem = machine_.mem();
    for (const Gms &gms : freed) {
        // A shared region survives in a peer's address space: its
        // contents are still live and must not be wiped.
        if (gms.shared)
            continue;
        for (Addr p = gms.base; p < gms.base + gms.size;
             p += kPageSize) {
            if (pageQuarantined(p))
                continue;
            mem.releasePage(p);
            ++statRasScrubbed_;
        }
    }
}

MonitorResult
SecureMonitor::healTable(DomainId id)
{
    Domain *dom = findDomain(id);
    panic_if(!dom || !dom->table, "healTable without a table");
    return transact("healTable", [&](Txn &txn) {
        txn.touch(id);
        if (FAULT_POINT("monitor.heal_table")) {
            throw MonitorAbort{MonitorError::InjectedFault,
                               "injected fault at monitor.heal_table"};
        }
        // The dying table's stores keep counting, as on destroy.
        tableWritesTotal_ += dom->table->entryWrites();
        txn.stashTable(id, std::move(dom->table));
        // Rebuild from the monitor's authoritative layout into fresh
        // frames: the poisoned pmpte bytes are never read.
        dom->table = std::make_unique<PmpTable>(
            machine_.mem(),
            [this](unsigned npages) { return allocTableFrame(npages); },
            config_.pmptLevels);
        dom->table->setWriteAggregate(&tableWritesAgg_);
        dom->table->setJournal(&txn.journal_);
        for (const Gms &gms : dom->gmsList)
            writeGmsToTable(*dom, gms);

        bool degraded = false;
        if (id == current_) {
            // The running domain's root moved: reprogram the
            // registers and run the real shootdown (non-empty diff).
            degraded = applyLayout();
        } else {
            // No register points at the rebuilt table, but PMPTW
            // caches may hold pmptes of the old frames from when the
            // domain last ran: fence every hart anyway (fail closed
            // on lost IPIs).
            machine_.sfenceVma();
            machine_.hpmp().flushCache();
            remoteShootdown();
        }
        return txn.commit(true, degraded);
    });
}

MonitorValue<RasOutcome>
SecureMonitor::handleMachineCheck(Addr pa)
{
    ++statRasReports_;
    const Addr page = pa & ~Addr(kPageSize - 1);
    MonitorValue<RasOutcome> result;
    if (pageQuarantined(page)) {
        // The frame is already retired; nothing new to contain.
        result.value = RasOutcome::AlreadyQuarantined;
        noteResult(true, MonitorError::None, 0, false, false);
        return result;
    }
    if (rasFatal_) {
        noteResult(false, MonitorError::RasFatal, 0, false, false);
        return MonitorValue<RasOutcome>::fail(
            MonitorError::RasFatal,
            "host degraded by an uncontained memory error");
    }

    // Class 1 — a pmpte frame of a live domain's PMP Table: the
    // monitor holds the authoritative layout, so rebuild instead of
    // killing the domain.
    DomainId tableOwner = 0;
    bool ownsTable = false;
    domains_.forEach([&](DomainId id, const Domain &dom) {
        if (!ownsTable && dom.table && dom.table->isTablePage(page)) {
            tableOwner = id;
            ownsTable = true;
        }
    });
    if (ownsTable) {
        // Measurement oracle around the rebuild: self-heal must not
        // change what the domain attests to.
        const MonitorValue<MerkleHash> pre = measureDomain(tableOwner);
        const std::vector<Addr> oldFrames =
            domain(tableOwner).table->tablePages();
        const MonitorResult heal = healTable(tableOwner);
        if (!heal.ok) {
            if (heal.code == MonitorError::OutOfTableFrames) {
                // The monitor cannot rebuild: degrade the whole host
                // rather than keep checking against poisoned pmptes.
                enterRasFatal(pa);
                quarantinePage(page);
                result.value = RasOutcome::HostFatal;
                noteResult(true, MonitorError::None, 0, true, false);
                return result;
            }
            noteResult(false, heal.code, 0, false, false);
            return MonitorValue<RasOutcome>::fail(heal.code,
                                                  heal.error);
        }
        quarantinePage(page);
        // The other old frames hold only dead pmptes (bump-allocated
        // monitor frames are never reissued): drop their backing.
        for (const Addr frame : oldFrames) {
            if (!pageQuarantined(frame))
                machine_.mem().releasePage(frame);
        }
        const MonitorValue<MerkleHash> post = measureDomain(tableOwner);
        panic_if(pre.ok != post.ok ||
                     (pre.ok && pre.value != post.value),
                 "self-heal changed domain %u's measurement",
                 tableOwner);
        ++statRasHeals_;
        result.value = RasOutcome::HealedTable;
        noteResult(true, MonitorError::None, heal.cycles,
                   heal.degraded, false);
        return result;
    }

    // Class 2 — monitor-private state (or a table frame the registry
    // cannot attribute): no containment boundary is left below the
    // TCB. The host degrades; read paths stay up, grants stop.
    if (page >= config_.monitorBase &&
        page < config_.monitorBase + config_.monitorSize) {
        enterRasFatal(pa);
        quarantinePage(page);
        result.value = RasOutcome::HostFatal;
        noteResult(true, MonitorError::None, 0, true, false);
        return result;
    }

    // Class 3 — a live enclave's data page: retire the frame and
    // destroy only the owning domain. Siblings and the host keep
    // running (the blast-radius contract the chaos campaign audits).
    DomainId victim = 0;
    bool owned = false;
    domains_.forEach([&](DomainId id, const Domain &dom) {
        if (owned)
            return;
        for (const Gms &gms : dom.gmsList) {
            if (gms.base <= pa && pa < gms.base + gms.size) {
                victim = id;
                owned = true;
                return;
            }
        }
    });
    if (owned && victim != 0) {
        const MonitorResult destroy = destroyDomain(victim);
        if (!destroy.ok) {
            noteResult(false, destroy.code, 0, false, false);
            return MonitorValue<RasOutcome>::fail(destroy.code,
                                                  destroy.error);
        }
        quarantinePage(page);
        ++statRasContained_;
        DPRINTF(Monitor, "contained poison %#lx: domain %u destroyed\n",
                pa, victim);
        result.value = RasOutcome::ContainedDomain;
        noteResult(true, MonitorError::None, destroy.cycles,
                   destroy.degraded, false);
        return result;
    }

    // The host's own page (domain 0 cannot be destroyed) or an
    // unowned free frame: retire it in place.
    quarantinePage(page);
    result.value = RasOutcome::QuarantinedFree;
    noteResult(true, MonitorError::None, 0, false, false);
    return result;
}

const std::vector<Gms> &
SecureMonitor::gmsOf(DomainId id) const
{
    return domain(id).gmsList;
}

bool
SecureMonitor::applyLayout()
{
    HpmpUnit &unit = machine_.hpmp();
    const unsigned entries = unit.regs().numEntries();
    // The layout pass mutates the current domain (Hpmp demotions, lazy
    // table creation), so it joins the transaction's touched set.
    if (activeTxn_)
        activeTxn_->touch(current_);
    Domain &dom = domain(current_);
    bool degraded = false;

    // Build the complete desired register image, then diff it against
    // the live registers: only changed CSRs are written (the paper's
    // incremental path — a steady-state switch between domains with
    // mostly shared layout costs ~2 CSR writes, not all 32). Entries
    // not claimed below default to OFF, which subsumes the old
    // disable-stale-entries pass.
    LayoutImage img(entries);

    // Entry 0 stays on the monitor region; everything else is ours.
    img.segment(0, config_.monitorBase, config_.monitorSize, Perm::none());
    unsigned next_entry = 1;
    auto napot_ok = [](const Gms &gms) {
        return isPowerOf2(gms.size) && gms.size >= 8 &&
               gms.base % gms.size == 0;
    };
    auto image_segment = [&](const Gms &gms) {
        img.segment(next_entry++, gms.base, gms.size, gms.perm);
    };

    switch (config_.scheme) {
      case IsolationScheme::None:
        break;
      case IsolationScheme::Pmp:
        for (const Gms &gms : dom.gmsList) {
            if (!napot_ok(gms)) {
                throw MonitorAbort{
                    MonitorError::BadArgument,
                    "non-NAPOT GMS cannot use a segment entry"};
            }
            if (next_entry >= entries) {
                throw MonitorAbort{MonitorError::OutOfPmpEntries,
                                   "no available PMP entry"};
            }
            image_segment(gms);
        }
        break;
      case IsolationScheme::PmpTable: {
        if (next_entry + 1 >= entries) {
            throw MonitorAbort{MonitorError::OutOfPmpEntries,
                               "no entries left for the PMP table"};
        }
        PmpTable &table = tableOf(current_);
        img.table(next_entry, 0, machine_.params().physMemBytes,
                  table.rootPa(), table.levels());
        next_entry += 2;
        break;
      }
      case IsolationScheme::Hpmp: {
        // Fast GMSs first (higher priority = acts as a cache of the
        // table); then one table-mode pair covering everything. When
        // there are more fast GMSs than segment entries, demote the
        // coldest to table mode — the region stays protected (the
        // table always covers it), checks just get slower. This is
        // the documented degraded mode; callers see result.degraded.
        std::vector<size_t> fast;
        for (size_t i = 0; i < dom.gmsList.size(); ++i) {
            if (dom.gmsList[i].label == GmsLabel::Fast &&
                napot_ok(dom.gmsList[i])) {
                fast.push_back(i);
            }
        }
        const unsigned budget = segmentBudget();
        if (fast.size() > budget) {
            std::sort(fast.begin(), fast.end(),
                      [&dom](size_t a, size_t b) {
                          const Gms &ga = dom.gmsList[a];
                          const Gms &gb = dom.gmsList[b];
                          if (ga.heat != gb.heat)
                              return ga.heat > gb.heat;
                          return a < b;
                      });
            for (size_t k = budget; k < fast.size(); ++k) {
                dom.gmsList[fast[k]].label = GmsLabel::Slow;
                degraded = true;
                ++statDemotions_;
                DPRINTF(Monitor, "demote coldest GMS base=%#lx to table\n",
                        dom.gmsList[fast[k]].base);
            }
            fast.resize(budget);
            std::sort(fast.begin(), fast.end());
        }
        for (size_t idx : fast)
            image_segment(dom.gmsList[idx]);
        if (next_entry + 1 >= entries) {
            throw MonitorAbort{MonitorError::OutOfPmpEntries,
                               "no entries left for the PMP table"};
        }
        PmpTable &table = tableOf(current_);
        img.table(next_entry, 0, machine_.params().physMemBytes,
                  table.rootPa(), table.levels());
        next_entry += 2;
        break;
      }
    }

    unit.applyImage(img);

    // Any isolation-state change requires TLB + PMPTW synchronization
    // on the hart that executed it — even a zero-write diff, because
    // table *contents* may have changed under an unchanged root.
    // Fence the initiating hart synchronously (its trap returns to the
    // new state), then shoot down everyone else.
    Machine &initiator = smp_.hart(smp_.currentHart());
    if (&initiator != &machine_) {
        initiator.hpmp().syncRegsFrom(machine_.hpmp());
        pendingIpiCycles_ += config_.costs.remoteFenceCycles;
    }
    initiator.sfenceVma();
    initiator.hpmp().flushCache();
    machine_.hpmp().flushCache();

    // Empty-diff fast path: a same-layout commit (e.g. re-switching to
    // the already-current domain) wrote no CSRs and no pmptes, so
    // sibling harts hold nothing stale — the remote shootdown *and*
    // the guest fences are elided. One hart has no shootdown to spare,
    // so it never takes (or counts) the elision.
    const uint64_t csr_delta = machine_.hpmp().csrWrites() - csrSnapshot_;
    const uint64_t table_delta = tableWritesAgg_ - tableWriteSnapshot_;
    if (smp_.numHarts() > 1 && csr_delta == 0 && table_delta == 0) {
        ++statIpiElided_;
        if (smp_.virtEnabled())
            smp_.noteHfenceElided();
        return degraded;
    }

    // Virt-enabled: physical permissions are inlined into combined-TLB
    // entries, so the initiating hart's guest view must drop with its
    // sfence — the remote harts get theirs inside the shootdown.
    if (smp_.virtEnabled()) {
        smp_.virtHart(smp_.currentHart()).hfenceGvma();
        pendingHfenceCycles_ += config_.costs.hfenceCycles;
    }
    if (coalesceActive_ && smp_.numHarts() > 1)
        deferShootdown();
    else
        remoteShootdown();
    return degraded;
}

void
SecureMonitor::deferShootdown()
{
    const unsigned committer = smp_.currentHart();
    ++coalescedCommits_;
    lastCommitter_ = committer;
    if (!coalescedOpen_) {
        coalescedOpen_ = true;
        coalescedSeq_ = smp_.nextIpiSeq();
        smp_.notifyStep({IpiPhase::WindowBegin, committer, committer,
                          coalescedSeq_});
    } else {
        // Later commits move the canonical state the pending flush
        // will fence everyone to; checkers refresh their oracle here.
        smp_.notifyStep({IpiPhase::CoalescedCommit, committer,
                          committer, coalescedSeq_});
    }
}

void
SecureMonitor::beginCoalescedWindow()
{
    panic_if(coalesceActive_, "nested coalesced windows");
    panic_if(activeTxn_, "beginCoalescedWindow inside a monitor call");
    coalesceActive_ = true;
    coalescedCommits_ = 0;
    // Parent span for the whole epoch: it stays the current trace
    // context until endCoalescedWindow, so every deferred commit's
    // call span (and the shared flush round) nests under it.
    coalescedSpan_ = Tracer::instance().spans().beginSpan(
        TraceFlag::Monitor, "coalesced_epoch", smp_.currentHart());
}

uint64_t
SecureMonitor::endCoalescedWindow()
{
    panic_if(!coalesceActive_, "endCoalescedWindow without begin");
    panic_if(activeTxn_, "endCoalescedWindow inside a monitor call");
    coalesceActive_ = false;
    if (!coalescedOpen_) {
        // Every call in the epoch either failed or elided: no commit
        // is pending and no window ever opened.
        coalescedCommits_ = 0;
        Tracer::instance().spans().endSpan(coalescedSpan_);
        coalescedSpan_ = 0;
        return 0;
    }

    // One shared IPI/hfence round covering every deferred commit. The
    // flush runs on the last committer's hart and holds the monitor
    // lock: a sibling hart's trap racing the flush bounces with
    // LockContended exactly as it would against a regular call.
    const unsigned initiator = lastCommitter_;
    const uint64_t seq = coalescedSeq_;
    const bool virt = smp_.virtEnabled();
    panic_if(!smp_.tryAcquireMonitorLock(initiator),
             "coalesced flush raced a monitor call");

    ++statIpiShootdowns_;
    ++statCoalescedWindows_;
    statCommitsPerWindow_.sample(coalescedCommits_);
    if (virt)
        ++statHfenceShootdowns_;
    uint64_t cycles = config_.costs.ipiPostCycles;

    for (unsigned h = 0; h < smp_.numHarts(); ++h) {
        if (h == initiator)
            continue;
        // Exactly one post per sibling per window: a lost IPI inside
        // the still-open window is re-posted with bounded retries,
        // counted in ipi_retries only — never a second ipi_post (the
        // double-count would break ipi_post == windows x siblings).
        ++statIpiSent_;
        ++statIpiPost_;
        ScopedSpan hartSpan(TraceFlag::Monitor, "shootdown.hart", h, seq);
        smp_.notifyStep({IpiPhase::Posted, initiator, h, seq});
        for (unsigned attempt = 0;
             attempt < 8 && FAULT_POINT("smp.ipi_deliver"); ++attempt)
            ++statIpiRetries_;
        Machine &dst = smp_.hart(h);
        dst.hpmp().syncRegsFrom(machine_.hpmp());
        dst.sfenceVma();
        dst.hpmp().flushCache();
        if (virt) {
            ++statHfenceSent_;
            ScopedSpan hfenceSpan(TraceFlag::Monitor, "shootdown.hfence",
                                  h, seq);
            for (unsigned attempt = 0;
                 attempt < 8 && FAULT_POINT("smp.hfence_deliver");
                 ++attempt)
                ++statIpiRetries_;
            smp_.virtHart(h).hfenceGvma();
            cycles += config_.costs.hfenceCycles;
            for (unsigned attempt = 0;
                 attempt < 8 && FAULT_POINT("smp.hfence_ack"); ++attempt)
                ++statIpiRetries_;
            ++statHfenceAcked_;
        }
        smp_.notifyStep({IpiPhase::Delivered, initiator, h, seq});
        for (unsigned attempt = 0;
             attempt < 8 && FAULT_POINT("smp.ipi_ack"); ++attempt)
            ++statIpiRetries_;
        cycles += config_.costs.ipiAckCycles +
                  config_.costs.remoteFenceCycles;
        ++statIpiAcked_;
        smp_.notifyStep({IpiPhase::Acked, initiator, h, seq});
    }

    coalescedOpen_ = false;
    coalescedCommits_ = 0;
    smp_.notifyStep({IpiPhase::WindowEnd, initiator, initiator, seq});
    statIpiCycles_.sample(cycles);
    smp_.releaseMonitorLock(initiator);
    Tracer::instance().spans().endSpan(coalescedSpan_, coalescedCommits_,
                                       cycles);
    coalescedSpan_ = 0;
    return cycles;
}

void
SecureMonitor::remoteShootdown()
{
    if (smp_.numHarts() == 1)
        return;
    const unsigned initiator = smp_.currentHart();
    const uint64_t seq = smp_.nextIpiSeq();
    const bool virt = smp_.virtEnabled();
    // Mutation knob (testSkipFenceNth): sabotage exactly one shootdown
    // by acking siblings without fencing them.
    const bool skipFence =
        skipFenceNth_ != 0 && ++skipFenceSeen_ == skipFenceNth_;
    ++statIpiShootdowns_;
    if (virt)
        ++statHfenceShootdowns_;
    pendingIpiCycles_ += config_.costs.ipiPostCycles;
    ipiWindowOpen_ = true;
    ipiWindowSeq_ = seq;
    // Window and per-sibling spans close by RAII on both the normal
    // path (at WindowEnd below) and an abort's unwind, so a failed
    // shootdown's trace shows exactly which sibling's fence died.
    ScopedSpan windowSpan(TraceFlag::Monitor, "shootdown.window",
                          initiator, seq);
    smp_.notifyStep({IpiPhase::WindowBegin, initiator, initiator, seq});

    for (unsigned h = 0; h < smp_.numHarts(); ++h) {
        if (h == initiator)
            continue;
        ++statIpiSent_;
        ScopedSpan hartSpan(TraceFlag::Monitor, "shootdown.hart", h, seq);
        smp_.notifyStep({IpiPhase::Posted, initiator, h, seq});
        // A lost or glitched IPI can never leave hart h running on the
        // old state while the call commits the new one: the call fails
        // closed and the cross-hart rollback re-fences every hart back
        // to the pre-call state.
        if (FAULT_POINT("smp.ipi_deliver")) {
            ++statIpiLost_;
            throw MonitorAbort{
                MonitorError::InjectedFault,
                "lost IPI to hart " + std::to_string(h) +
                    " (smp.ipi_deliver): call fails closed"};
        }
        Machine &dst = smp_.hart(h);
        if (!skipFence) {
            dst.hpmp().syncRegsFrom(machine_.hpmp());
            dst.sfenceVma();
            dst.hpmp().flushCache();
        }
        // The guest fence rides the same IPI: the handler executes
        // hfence.gvma after the sfence, with its own delivery/ack
        // fault sites. A dropped guest fence can never leave hart h
        // serving combined/G-stage entries that inline the old layout
        // — the call fails closed and rollback re-fences every guest.
        if (virt) {
            ++statHfenceSent_;
            ScopedSpan hfenceSpan(TraceFlag::Monitor, "shootdown.hfence",
                                  h, seq);
            if (FAULT_POINT("smp.hfence_deliver")) {
                ++statHfenceLost_;
                throw MonitorAbort{
                    MonitorError::InjectedFault,
                    "lost guest fence on hart " + std::to_string(h) +
                        " (smp.hfence_deliver): call fails closed"};
            }
            smp_.virtHart(h).hfenceGvma();
            pendingHfenceCycles_ += config_.costs.hfenceCycles;
            if (FAULT_POINT("smp.hfence_ack")) {
                ++statHfenceLost_;
                throw MonitorAbort{
                    MonitorError::InjectedFault,
                    "lost guest-fence ack from hart " +
                        std::to_string(h) +
                        " (smp.hfence_ack): call fails closed"};
            }
            ++statHfenceAcked_;
        }
        smp_.notifyStep({IpiPhase::Delivered, initiator, h, seq});
        if (FAULT_POINT("smp.ipi_ack")) {
            ++statIpiLost_;
            throw MonitorAbort{
                MonitorError::InjectedFault,
                "lost IPI ack from hart " + std::to_string(h) +
                    " (smp.ipi_ack): call fails closed"};
        }
        pendingIpiCycles_ +=
            config_.costs.ipiAckCycles + config_.costs.remoteFenceCycles;
        ++statIpiAcked_;
        smp_.notifyStep({IpiPhase::Acked, initiator, h, seq});
    }

    ipiWindowOpen_ = false;
    smp_.notifyStep({IpiPhase::WindowEnd, initiator, initiator, seq});
}

uint64_t
SecureMonitor::stateDigest() const
{
    return digestWith(machine_.hpmp());
}

uint64_t
SecureMonitor::hartStateDigest(unsigned hart, bool include_virt,
                               bool include_csr_counter) const
{
    uint64_t h = digestWith(smp_.hart(hart).hpmp(), include_csr_counter);
    if (include_virt && smp_.virtEnabled()) {
        const VirtMachine &vm = smp_.virtHart(hart);
        h = fnvWordStep(h, vm.vsatpRoot());
        h = fnvWordStep(h, vm.hgatpRoot());
        h = fnvWordStep(h, uint64_t(vm.guestPriv()));
    }
    return h;
}

uint64_t
SecureMonitor::digestWith(const HpmpUnit &unit,
                          bool include_csr_counter) const
{
    uint64_t h = kFnvBasis;
    h = fnvWordStep(h, current_);
    h = fnvWordStep(h, domains_.nextIndex());
    h = fnvWordStep(h, tableFrameNext_);
    h = fnvWordStep(h, tableWritesTotal_);
    h = fnvWordStep(h, heatClock_);
    h = fnvWordStep(h, rasFatal_);
    // Order-independent fold of the quarantine set: hash-set
    // iteration order is not stable across rehashes.
    uint64_t q = 0;
    for (const Addr page : quarantine_)
        q ^= fnvScramble(page);
    h = fnvWordStep(h, q);
    h = fnvWordStep(h, quarantine_.size());

    // Siblings fenced by a coalesced window apply one *net* register
    // diff where the committing hart paid per-commit diffs, so their
    // CSR-write counters legitimately trail the canonical hart's.
    // Convergence checks exclude the counter; rollback checks keep it.
    if (include_csr_counter)
        h = fnvWordStep(h, unit.csrWrites());
    const PmpUnit &regs = unit.regs();
    for (unsigned i = 0; i < regs.numEntries(); ++i) {
        h = fnvWordStep(h, regs.addr(i));
        h = fnvWordStep(h, regs.cfg(i).raw);
    }

    domains_.forEach([&](DomainId id, const Domain &dom) {
        h = fnvWordStep(h, id);
        h = fnvWordStep(h, dom.alive);
        h = fnvWordStep(h, dom.migrating);
        for (const Gms &gms : dom.gmsList) {
            h = fnvWordStep(h, gms.base);
            h = fnvWordStep(h, gms.size);
            h = fnvWordStep(h, uint64_t(gms.perm.r) |
                                   uint64_t(gms.perm.w) << 1 |
                                   uint64_t(gms.perm.x) << 2);
            h = fnvWordStep(h, uint64_t(gms.label));
            h = fnvWordStep(h, gms.shared);
            h = fnvWordStep(h, gms.heat);
        }
        if (dom.table) {
            h = fnvWordStep(h, dom.table->rootPa());
            h = fnvWordStep(h, dom.table->levels());
            h = fnvWordStep(h, dom.table->entryWrites());
            h = fnvWordStep(h, dom.table->tablePages().size());
            for (const Addr page : dom.table->tablePages()) {
                for (unsigned i = 0; i < kPageSize / 8; ++i)
                    h = fnvWordStep(h, machine_.mem().read64(page + i * 8));
            }
        }
    });
    return h;
}

} // namespace hpmp
