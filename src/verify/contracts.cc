#include "verify/contracts.h"

#include <algorithm>

#include "core/params.h"
#include "monitor/invariants.h"

namespace hpmp::verify
{

namespace
{

std::string
resolvedAs(const char *poison, RasOutcome outcome)
{
    return std::string(poison) + " poison resolved as " + toString(outcome);
}

} // namespace

// ---- system fixture -------------------------------------------------

MachineParams
fixtureParams(unsigned pmptw_entries)
{
    MachineParams p = rocketParams();
    p.pmptwEntries = pmptw_entries;
    return p;
}

SystemFixture::SystemFixture(const MachineParams &mp, const SmpParams &sp,
                             IsolationScheme scheme)
    : smp(mp, sp), monitor(smp, MonitorConfig{.scheme = scheme, .costs = {}})
{
    for (unsigned h = 0; h < sp.harts; ++h) {
        smp.hart(h).setPriv(PrivMode::Supervisor);
        smp.hart(h).setBare();
    }
}

DomainId
SystemFixture::addDomain(Addr base, uint64_t bytes, GmsLabel label)
{
    const DomainId id = monitor.createDomain();
    const MonitorResult r =
        monitor.addGms(id, {base, bytes, Perm::rw(), label});
    panic_if(!r.ok, "fixture addGms failed: %s", r.error.c_str());
    return id;
}

// ---- nested-call probe ----------------------------------------------

IpiProbe::IpiProbe(SecureMonitor &monitor, StaleChecker &checker,
                   Decide decide)
    : smp_(monitor.smp()), monitor_(monitor), checker_(checker),
      decide_(std::move(decide))
{
}

void
IpiProbe::onIpiStep(const IpiEvent &event)
{
    checker_.onIpiStep(event);
    if (event.phase == IpiPhase::WindowBegin)
        ++openWindows_;
    if (event.phase == IpiPhase::WindowEnd)
        --openWindows_;
    // Posted/Delivered steps always run inside a monitor transaction
    // (the satp fence path does not take the lock, so its SatpFence
    // steps are not probed).
    if ((event.phase != IpiPhase::Posted &&
         event.phase != IpiPhase::Delivered) ||
        breach_ || !decide_(event)) {
        return;
    }
    const unsigned saved = smp_.currentHart();
    smp_.setCurrentHart(event.dstHart);
    const MonitorResult r = monitor_.switchTo(monitor_.currentDomain());
    smp_.setCurrentHart(saved);
    if (!r.ok && r.code == MonitorError::LockContended) {
        ++bounced_;
        return;
    }
    breach_ = {"nested_call",
               "nested switchTo from hart " + std::to_string(event.dstHart) +
                   " at " + toString(event.phase) +
                   " did not bounce LockContended (got " +
                   (r.ok ? "ok" : toString(r.code)) + ")"};
}

// ---- per-op audit battery -------------------------------------------

void
rollbackDigests(const SecureMonitor &monitor, std::vector<uint64_t> &out)
{
    for (unsigned h = 0; h < unsigned(out.size()); ++h)
        out[h] = monitor.hartStateDigest(h);
}

Breach
auditOp(SecureMonitor &monitor, StaleChecker &checker,
        const IpiProbe &probe, const OpChecks &c)
{
    const std::string after = " after " + c.where;
    if (probe.breach())
        return {"nested_call", probe.breach().what + " during " + c.where};
    if (probe.openWindows() != 0)
        return {"unclosed_window", "shootdown window still open" + after};
    const MonitorResult *r = c.result;
    const bool failed = r && !r->ok;
    if (failed && r->code == MonitorError::None)
        return {"untyped_failure", "untyped failure: " + r->error + after};
    for (unsigned h = 0; failed && c.pre && h < c.pre->size(); ++h) {
        if (monitor.hartStateDigest(h) != (*c.pre)[h]) {
            return {"rollback_divergence",
                    "failed call (" + std::string(toString(r->code)) +
                        ") left hart " + std::to_string(h) +
                        " digest changed" + after};
        }
    }
    if (r && r->ok && c.faultFired) {
        return {"fault_swallowed",
                "an injected fault fired but the call committed ok" + after};
    }
    // include_virt=false: per-hart guests legitimately run their own
    // tables — only the host view must converge. include_csr_counter=
    // false: coalesced windows fence siblings with one net diff, so
    // write counters diverge legitimately; register *contents* must
    // still agree.
    const unsigned harts = c.convergence ? monitor.smp().numHarts() : 0;
    const uint64_t ref = harts ? monitor.hartStateDigest(0, false, false) : 0;
    for (unsigned h = 1; h < harts; ++h) {
        if (monitor.hartStateDigest(h, false, false) != ref) {
            return {"convergence_divergence",
                    "hart " + std::to_string(h) +
                        " digest disagrees with hart 0 after " +
                        (failed ? "failed " : "committed ") + c.where};
        }
    }
    // The checker may have tripped mid-window; either way a quiescent
    // sweep must be clean after every op.
    if (checker.failed() || !checker.checkQuiescent())
        return {"stale_checker", checker.failure()};
    return auditInvariants(monitor, c.where);
}

Breach
auditInvariants(SecureMonitor &monitor, const std::string &where)
{
    const std::string violation = checkIsolationInvariants(monitor);
    if (violation.empty())
        return {};
    return {"invariant", violation + " after " + where};
}

// ---- RAS containment verdict ----------------------------------------

void
ContainmentAudit::before(PoisonClass cls, Addr pa, DomainId victim,
                         Addr table_root)
{
    cls_ = cls;
    page_ = pa & ~Addr(kPageSize - 1);
    victim_ = victim;
    live_ = monitor_.domainIds();
    oldRoot_ = table_root;
    digest_ = monitor_.stateDigest();
    quarantined_ = monitor_.pageQuarantined(page_);
    fatal_ = monitor_.rasFatal();
}

Breach
ContainmentAudit::after(const MonitorValue<RasOutcome> &out)
{
    auto unchanged = [&] { return monitor_.stateDigest() == digest_; };
    if (quarantined_) {
        // Repeat report of a retired frame: an ok no-op always, even
        // after the host degraded.
        if (!out.ok || out.value != RasOutcome::AlreadyQuarantined)
            return {"quarantine", "repeat report of a retired frame failed"};
        if (!unchanged())
            return {"quarantine", "no-op repeat report changed the digest"};
        return {};
    }
    if (fatal_) {
        // New reports after the whole-host degrade: typed RasFatal
        // denial, nothing mutated.
        if (out.ok || out.code != MonitorError::RasFatal)
            return {"ras_fatal", "report on a degraded host not denied"};
        if (!unchanged())
            return {"ras_rollback", "denied report changed the digest"};
        return {};
    }
    if (!out.ok) {
        // An injected fault aborted containment: bit-identical rollback
        // (the digest covers the registry, every table root and the
        // quarantine set), frame not retired, victim intact.
        const std::vector<DomainId> now = monitor_.domainIds();
        if (!unchanged())
            return {"ras_rollback", "failed containment changed the digest"};
        if (monitor_.pageQuarantined(page_))
            return {"ras_rollback", "failed containment retired the frame"};
        if (victim_ && std::find(now.begin(), now.end(), victim_) == now.end())
            return {"ras_rollback", "failed containment killed the victim"};
        return {};
    }
    // Registry lookups are counted in the monitor's stats: these make
    // one per bystander, plus the victim's for Data and Pmpte.
    DomainId mayDie = 0;
    switch (cls_) {
      case PoisonClass::Data:
        if (out.value != RasOutcome::ContainedDomain)
            return {"blast_radius", resolvedAs("data-page", out.value)};
        if (monitor_.domainExists(victim_))
            return {"blast_radius", "victim survived its own containment"};
        mayDie = victim_;
        break;
      case PoisonClass::Pmpte: {
        if (out.value == RasOutcome::HostFatal) {
            // Legal escalation: out of fresh table frames.
            fatalExpected_ = true;
            break;
        }
        if (out.value != RasOutcome::HealedTable)
            return {"heal", resolvedAs("pmpte", out.value)};
        const PmpTable *healed = monitor_.tablePeek(victim_);
        if (!monitor_.domainExists(victim_) || !healed)
            return {"heal", "self-heal lost the domain"};
        if (healed->rootPa() == oldRoot_)
            return {"heal", "healed table still points at the old root"};
        break;
      }
      case PoisonClass::Free:
        if (out.value != RasOutcome::QuarantinedFree)
            return {"blast_radius", resolvedAs("free-frame", out.value)};
        break;
      case PoisonClass::Monitor:
        if (out.value != RasOutcome::HostFatal)
            return {"ras_fatal", resolvedAs("monitor-page", out.value)};
        fatalExpected_ = true;
        if (!monitor_.rasFatal())
            return {"ras_fatal", "HostFatal did not latch rasFatal"};
        break;
      case PoisonClass::Scrubbed:
        mayDie = victim_;
        break;
    }
    if (!monitor_.pageQuarantined(page_))
        return {"quarantine", "poisoned frame was not retired"};
    for (const DomainId id : live_) {
        if (id != mayDie && !monitor_.domainExists(id))
            return {"blast_radius", "killed bystander " + std::to_string(id)};
    }
    return {};
}

Breach
ContainmentAudit::healAttestation(const MonitorValue<AttestationReport> *pre,
                                  const MonitorValue<AttestationReport> &post,
                                  uint64_t nonce) const
{
    if (pre && (!pre->ok || !post.ok ||
                pre->value.measurement != post.value.measurement)) {
        return {"heal", "self-heal changed the measurement"};
    }
    if (post.ok && !monitor_.attestor().verify(post.value, nonce))
        return {"heal", "post-heal report does not verify"};
    return {};
}

Breach
ContainmentAudit::consumption(const AccessOutcome &out, Addr line)
{
    if (out.fault != Fault::MachineCheck) {
        return {"machine_check",
                std::string("poisoned load: ") + toString(out.fault)};
    }
    if ((out.poisonAddr & ~Addr(63)) != (line & ~Addr(63)))
        return {"machine_check", "machine check blamed the wrong line"};
    return {};
}

Breach
ContainmentAudit::degradedCall(const MonitorResult &result)
{
    if (!result.ok && result.code == MonitorError::RasFatal)
        return {};
    return {"ras_fatal", "mutating call on a degraded host not denied"};
}

Breach
ContainmentAudit::finish() const
{
    if (!monitor_.rasFatal() || fatalExpected_)
        return {};
    return {"ras_fatal", "host degraded without monitor-region poison"};
}

// ---- migration outcome verdict --------------------------------------

Breach
judgeMigration(const MigrateResult &res, const SecureMonitor &src,
               DomainId src_id, SecureMonitor &dst,
               const CrossSystemOracle &oracle, const MemoryImage *image)
{
    const std::string phase =
        std::string(" (phase ") + toString(res.failedPhase) + ")";
    if (oracle.failed())
        return {"dual_grant", oracle.failure()};
    if (res.ok) {
        if (src.domainExists(src_id))
            return {"commit_state", "commit left the domain on the source"};
        if (!dst.domainGrantable(res.destId))
            return {"commit_state", "commit left the destination idle"};
        std::vector<uint8_t> bytes(image ? image->bytes.size() : 0);
        if (image) {
            dst.machine().mem().readBytes(image->base, bytes.data(),
                                          bytes.size());
        }
        if (image && bytes != image->bytes)
            return {"commit_image", "commit corrupted the memory image"};
        return {};
    }
    if (res.committed || res.stranded) {
        if (src.domainGrantable(src_id) ||
            (res.destId != 0 && dst.domainGrantable(res.destId))) {
            return {"stranded_grant", "stranded domain granted" + phase};
        }
        if (src.domainExists(src_id) || !dst.domainMigrating(res.destId))
            return {"stranded_state", "stranded domain not staged" + phase};
        return {};
    }
    if (res.sourcePostDigest != res.sourcePreDigest)
        return {"abort_digest", "abort changed the source digest" + phase};
    if (!src.domainGrantable(src_id))
        return {"abort_grantable", "abort left the domain idle" + phase};
    return {};
}

} // namespace hpmp::verify
