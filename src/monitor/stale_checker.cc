#include "monitor/stale_checker.h"

#include <cstdio>

#include "base/fault_inject.h"
#include "base/logging.h"
#include "core/virt_machine.h"

namespace hpmp
{

namespace
{

const char *
typeName(AccessType type)
{
    switch (type) {
      case AccessType::Load: return "load";
      case AccessType::Store: return "store";
      case AccessType::Fetch: return "fetch";
    }
    return "?";
}

Addr
pageBase(Addr addr)
{
    return addr & ~Addr(kPageSize - 1);
}

} // namespace

StaleChecker::StaleChecker(SecureMonitor &monitor)
    : smp_(monitor.smp()), monitor_(monitor),
      acked_(smp_.numHarts(), false)
{
    stats_.add("probes", &statProbes_);
    stats_.add("windows", &statWindows_);
    stats_.add("pre_ack_stale_hits", &preAckStaleHits_);
    stats_.add("post_ack_violations", &postAckViolations_);
    stats_.add("stale_denies", &statStaleDenies_);
    stats_.add("page_fault_skips", &statPageFaultSkips_);
    stats_.add("quiescent_checks", &statQuiescentChecks_);
    stats_.add("virt_probes", &statVirtProbes_);
    stats_.add("virt_pre_ack_stale_hits", &virtPreAckStaleHits_);
    stats_.add("virt_stale_denies", &statVirtStaleDenies_);
    stats_.add("stale_origin_guest_stage", &statStaleGuestOrigin_);
    stats_.add("stale_origin_g_stage", &statStaleGStageOrigin_);
    stats_.add("stale_origin_pmpte", &statStalePmpteOrigin_);
    stats_.add("stale_exec_grants", &statStaleExecGrants_);
    stats_.add("stale_rw_grants", &statStaleRwGrants_);
}

void
StaleChecker::setGuestPerm(unsigned hart, Addr gva, Perm perm)
{
    guestPerm_[{hart, pageBase(gva)}] = perm;
}

void
StaleChecker::setGpaPerm(unsigned hart, Addr gpa, Perm perm)
{
    gpaPerm_[{hart, pageBase(gpa)}] = perm;
}

bool
StaleChecker::canonicalAllows(const StaleWatch &watch) const
{
    return monitor_.machine().hpmp().probe(watch.pa).allows(watch.type);
}

bool
StaleChecker::fenced(unsigned hart) const
{
    if (!windowOpen_)
        return true; // outside a window every hart must be converged
    return hart == windowInitiator_ || acked_[hart];
}

StaleChecker::ProbeResult
StaleChecker::probeWatch(const StaleWatch &watch)
{
    // The checker is instrumentation: its probes must neither trip
    // fault sites nor consume hits from the campaign's plan.
    FaultInjector::SuspendGuard guard;
    ++statProbes_;

    Machine &hart = smp_.hart(watch.hart);
    ProbeResult res;
    res.regGrant = hart.hpmp().probe(watch.pa).allows(watch.type);
    if (!watch.accessPath)
        return res;

    const AccessOutcome out = hart.access(watch.va, watch.type);
    switch (out.fault) {
      case Fault::None:
        res.access = AccessVerdict::Grant;
        break;
      case Fault::LoadAccessFault:
      case Fault::StoreAccessFault:
      case Fault::FetchAccessFault:
        res.access = AccessVerdict::Deny;
        break;
      default:
        // A page fault says nothing about physical permissions: the
        // watch's mapping is absent on this hart right now. Void the
        // access-level verdict (the register-level one still counts).
        res.access = AccessVerdict::PageFault;
        ++statPageFaultSkips_;
        break;
    }
    return res;
}

void
StaleChecker::recordViolation(const StaleWatch &watch, const char *level,
                              const char *direction, const char *where,
                              uint64_t seq)
{
    ++postAckViolations_;
    if (failed_)
        return; // keep the first, most proximate diagnosis
    failed_ = true;
    failure_ = std::string("stale-translation violation at ") + where +
               " (seq " + std::to_string(seq) + "): hart " +
               std::to_string(watch.hart) + " " + direction + " " +
               typeName(watch.type) + " at pa 0x";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(watch.pa));
    failure_ += buf;
    failure_ += std::string(" against the canonical state (") + level +
                " level)";
}

StaleChecker::VirtOracle
StaleChecker::canonicalVirtAllows(const VirtStaleWatch &watch) const
{
    // Deny origin = the first stage whose committed/canonical
    // permission refuses the access — exactly the stage whose stale
    // cached copy a granting hart must still be holding.
    VirtOracle oracle;
    const auto guest = guestPerm_.find({watch.hart, pageBase(watch.gva)});
    if (guest == guestPerm_.end() || !guest->second.allows(watch.type)) {
        oracle.denyOrigin = VirtFaultOrigin::GuestStage;
        return oracle;
    }
    const auto gpa = gpaPerm_.find({watch.hart, pageBase(watch.gpa)});
    if (gpa == gpaPerm_.end() || !gpa->second.allows(watch.type)) {
        oracle.denyOrigin = VirtFaultOrigin::GStage;
        return oracle;
    }
    if (!monitor_.machine().hpmp().probe(watch.spa).allows(watch.type)) {
        oracle.denyOrigin = VirtFaultOrigin::Phys;
        return oracle;
    }
    oracle.allow = true;
    return oracle;
}

bool
StaleChecker::probeVirtWatch(const VirtStaleWatch &watch)
{
    FaultInjector::SuspendGuard guard;
    ++statVirtProbes_;
    return smp_.virtHart(watch.hart).access(watch.gva, watch.type).ok();
}

void
StaleChecker::recordVirtViolation(const VirtStaleWatch &watch,
                                  VirtFaultOrigin origin,
                                  const char *where, uint64_t seq)
{
    ++postAckViolations_;
    if (failed_)
        return; // keep the first, most proximate diagnosis
    failed_ = true;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "gva 0x%llx (gpa 0x%llx, spa 0x%llx)",
                  static_cast<unsigned long long>(watch.gva),
                  static_cast<unsigned long long>(watch.gpa),
                  static_cast<unsigned long long>(watch.spa));
    failure_ = std::string("stale guest-translation violation at ") +
               where + " (seq " + std::to_string(seq) + "): hart " +
               std::to_string(watch.hart) + " granted stale " +
               typeName(watch.type) + " at " + buf + ", " +
               toString(origin) + " origin";
}

void
StaleChecker::sweepVirt(bool strict, const char *where, uint64_t seq)
{
    if (virtWatches_.empty() || !smp_.virtEnabled())
        return;
    for (size_t i = 0; i < virtWatches_.size(); ++i) {
        const VirtStaleWatch &w = virtWatches_[i];
        // Same oracle discipline as sweep(): mid-window judges against
        // the WindowBegin capture, strict sweeps re-ask the committed
        // maps and the canonical unit.
        const VirtOracle oracle = strict || virtOracle_.empty()
                                      ? canonicalVirtAllows(w)
                                      : virtOracle_[i];
        const bool hartFenced = fenced(w.hart);
        const bool grant = probeVirtWatch(w);

        if (grant && !oracle.allow) {
            switch (oracle.denyOrigin) {
              case VirtFaultOrigin::GuestStage:
                ++statStaleGuestOrigin_;
                break;
              case VirtFaultOrigin::GStage:
                ++statStaleGStageOrigin_;
                break;
              default:
                ++statStalePmpteOrigin_;
                break;
            }
            // Exec vs RW split: a stale instruction fetch through a
            // revoked X-only leaf is hunted under its own counter — a
            // hart still *executing* revoked memory is a different
            // severity class than one still reading it.
            if (w.type == AccessType::Fetch)
                ++statStaleExecGrants_;
            else
                ++statStaleRwGrants_;
            if (hartFenced)
                recordVirtViolation(w, oracle.denyOrigin, where, seq);
            else
                ++virtPreAckStaleHits_;
        }

        // Spurious guest denials stay non-fatal even in strict sweeps:
        // the two-stage path composes guest PT loads with physical
        // checks on the table frames themselves, so a denial can have
        // causes outside the watch's three oracle stages.
        if (!grant && oracle.allow)
            ++statVirtStaleDenies_;
    }
}

void
StaleChecker::sweep(bool strict, const char *where, uint64_t seq)
{
    for (size_t i = 0; i < watches_.size(); ++i) {
        const StaleWatch &w = watches_[i];
        // Mid-window the oracle is the WindowBegin capture (the state
        // the call committed before fencing); strict sweeps re-ask the
        // canonical unit so an aborted call is judged against the
        // *restored* state.
        const bool allow = strict || oracle_.empty()
                               ? canonicalAllows(w)
                               : oracle_[i];
        const bool hartFenced = fenced(w.hart);
        const ProbeResult res = probeWatch(w);

        // Stale *grants* are the security-relevant direction.
        const bool regStaleGrant = res.regGrant && !allow;
        const bool accStaleGrant =
            res.access == AccessVerdict::Grant && !allow;
        if (regStaleGrant || accStaleGrant) {
            const char *level = regStaleGrant ? "register" : "access";
            if (hartFenced)
                recordViolation(w, level, "granted stale", where, seq);
            else
                ++preAckStaleHits_;
        }

        // Fail-closed mismatches: spurious denials. Never fatal inside
        // the window. A strict sweep treats a fenced hart whose
        // *register file* still disagrees with canonical as out of
        // sync — the fence did not converge it. Access-level denials
        // stay non-fatal even then: the access path composes the walk
        // with checks on intermediate table frames, so a denial there
        // can have causes other than a stale translation.
        const bool regStaleDeny = !res.regGrant && allow;
        const bool accStaleDeny =
            res.access == AccessVerdict::Deny && allow;
        if (regStaleDeny || accStaleDeny) {
            ++statStaleDenies_;
            if (strict && hartFenced && regStaleDeny) {
                recordViolation(w, "register", "denied fresh", where,
                                seq);
            }
        }
    }
}

void
StaleChecker::onIpiStep(const IpiEvent &event)
{
    switch (event.phase) {
      case IpiPhase::WindowBegin:
        ++statWindows_;
        windowOpen_ = true;
        windowInitiator_ = event.srcHart;
        acked_.assign(smp_.numHarts(), false);
        // Capture the committed (new) state as the mid-window oracle.
        oracle_.resize(watches_.size());
        for (size_t i = 0; i < watches_.size(); ++i)
            oracle_[i] = canonicalAllows(watches_[i]);
        virtOracle_.resize(virtWatches_.size());
        for (size_t i = 0; i < virtWatches_.size(); ++i)
            virtOracle_[i] = canonicalVirtAllows(virtWatches_[i]);
        sweep(false, "window-begin", event.seq);
        sweepVirt(false, "window-begin", event.seq);
        break;

      case IpiPhase::Posted:
      case IpiPhase::Delivered:
        sweep(false, toString(event.phase), event.seq);
        sweepVirt(false, toString(event.phase), event.seq);
        break;

      case IpiPhase::Acked:
        if (event.dstHart < acked_.size())
            acked_[event.dstHart] = true;
        sweep(false, "acked", event.seq);
        sweepVirt(false, "acked", event.seq);
        break;

      case IpiPhase::CoalescedCommit:
        // A later call committed into the still-open coalesced window:
        // the canonical state everyone will be fenced to just moved
        // forward. Re-capture the mid-window oracle against it, and
        // move the initiator privilege to the new committer — it is
        // the only hart the monitor synced to this newest state; every
        // earlier ack (there are none pre-flush, but be explicit) or
        // earlier committer is stale again until the flush fences it.
        windowInitiator_ = event.srcHart;
        acked_.assign(smp_.numHarts(), false);
        oracle_.resize(watches_.size());
        for (size_t i = 0; i < watches_.size(); ++i)
            oracle_[i] = canonicalAllows(watches_[i]);
        virtOracle_.resize(virtWatches_.size());
        for (size_t i = 0; i < virtWatches_.size(); ++i)
            virtOracle_[i] = canonicalVirtAllows(virtWatches_[i]);
        sweep(false, "coalesced-commit", event.seq);
        sweepVirt(false, "coalesced-commit", event.seq);
        break;

      case IpiPhase::WindowEnd:
        // Emitted by both the commit path and the cross-hart rollback:
        // either way every hart has been fenced, so judge all of them
        // strictly against the canonical state as it stands *now*.
        windowOpen_ = false;
        sweep(true, "window-end", event.seq);
        sweepVirt(true, "window-end", event.seq);
        oracle_.clear();
        virtOracle_.clear();
        break;

      case IpiPhase::SatpFence:
      case IpiPhase::HfenceFence:
        // Not a permission change; nothing to re-judge. The satp and
        // hfence remote-fence paths have their own counters in "smp",
        // and both complete every hart synchronously before the write
        // returns — checkQuiescent judges the result after the op.
        break;
    }
}

bool
StaleChecker::checkQuiescent()
{
    panic_if(windowOpen_,
             "checkQuiescent inside an open shootdown window");
    ++statQuiescentChecks_;
    const uint64_t before = postAckViolations_.value();
    sweep(true, "quiescent", 0);
    sweepVirt(true, "quiescent", 0);
    return postAckViolations_.value() == before;
}

// ---- CrossSystemOracle -------------------------------------------------

CrossSystemOracle::CrossSystemOracle(SecureMonitor &src, SecureMonitor &dst)
    : src_(src), dst_(dst)
{
    stats_.add("checks", &statChecks_);
    stats_.add("violations", &statViolations_);
    stats_.add("register_probes", &statRegProbes_);
}

void
CrossSystemOracle::beginMigration(DomainId src_id,
                                  const std::vector<Gms> &regions)
{
    srcId_ = src_id;
    dstId_ = 0;
    active_ = true;
    haveDst_ = false;
    destCommitted_ = false;
    pages_.clear();
    // Watch the first and last page of every region: revoke bugs tend
    // to clip range edges, and two probes per region keep the per-step
    // cost linear in the GMS list, not the domain size.
    for (const Gms &gms : regions) {
        pages_.push_back(pageBase(gms.base));
        if (gms.size > kPageSize)
            pages_.push_back(pageBase(gms.base + gms.size - 1));
    }
}

void
CrossSystemOracle::finishMigration()
{
    active_ = false;
    haveDst_ = false;
    destCommitted_ = false;
    pages_.clear();
}

bool
CrossSystemOracle::grants(SecureMonitor &monitor, DomainId id)
{
    if (monitor.domainGrantable(id))
        return true;
    // Register level: the monitor may have revoked the domain, but a
    // hart's live HPMP file could still be granting the memory (the
    // layout leak this oracle exists to catch). Any grant of a
    // watched page counts — regions are exclusive, so no other domain
    // may legitimately hold them while the migration is in flight.
    SmpSystem &smp = monitor.smp();
    for (unsigned h = 0; h < smp.numHarts(); ++h) {
        for (Addr pa : pages_) {
            ++statRegProbes_;
            if (smp.hart(h).hpmp().probe(pa).any())
                return true;
        }
    }
    return false;
}

void
CrossSystemOracle::recordViolation(const char *what, const char *where)
{
    ++statViolations_;
    if (!failed_) {
        failed_ = true;
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "migration oracle: %s at step %s (src domain %u, "
                      "dst domain %u)",
                      what, where, unsigned(srcId_), unsigned(dstId_));
        failure_ = buf;
    }
}

void
CrossSystemOracle::step(const char *where)
{
    if (!active_)
        return;
    // The oracle's own probes must not trip fault sites or consume
    // hits from the campaign's injection plan.
    FaultInjector::SuspendGuard guard;
    ++statChecks_;
    const bool src_grants = grants(src_, srcId_);
    const bool dst_grants = haveDst_ && grants(dst_, dstId_);
    if (src_grants && dst_grants)
        recordViolation("dual-grant window (both hosts grant)", where);
    if (destCommitted_ && src_grants) {
        recordViolation("source still grants after destination commit",
                        where);
    }
}

} // namespace hpmp
