#include "core/virt_machine.h"

#include "base/trace.h"

namespace hpmp
{

VirtMachine::VirtMachine(const MachineParams &params)
    : VirtMachine(std::make_unique<Machine>(params), nullptr,
                  "virt_machine")
{
}

VirtMachine::VirtMachine(Machine &host, const std::string &stat_prefix)
    : VirtMachine(nullptr, &host, stat_prefix)
{
}

VirtMachine::VirtMachine(std::unique_ptr<Machine> owned, Machine *host,
                         const std::string &stat_prefix)
    : ownedMachine_(std::move(owned)),
      machine_(ownedMachine_ ? *ownedMachine_ : *host),
      combinedTlb_(machine_.params().l1TlbEntries,
                   machine_.params().l2TlbEntries),
      gStageTlb_(machine_.params().l1TlbEntries,
                 machine_.params().l2TlbEntries),
      vsPwc_(machine_.params().pwcEntries),
      stats_(stat_prefix),
      tlbStats_(stat_prefix + ".tlb"),
      gtlbStats_(stat_prefix + ".gtlb"),
      vsPwcStats_(stat_prefix + ".vs_pwc")
{
    // The host side runs bare; all translation happens here.
    machine_.setBare();

    stats_.add("accesses", &statAccesses_);
    stats_.add("tlb_hits", &statTlbHits_);
    stats_.add("walks", &statWalks_);
    stats_.add("npt_refs", &statNptRefs_);
    stats_.add("gpt_refs", &statGptRefs_);
    stats_.add("data_refs", &statDataRefs_);
    stats_.add("pmpt_refs", &statPmptRefs_);
    stats_.add("gtlb_hits", &statGTlbHits_);
    stats_.add("faults", &statFaults_);
    stats_.add("walk_cycles", &statWalkCycles_);
    combinedTlb_.registerStats(tlbStats_);
    gStageTlb_.registerStats(gtlbStats_);
    vsPwc_.registerStats(vsPwcStats_);

    gtlbHooks_.lookup =
        [this](Addr gpa_page, AccessType t) -> std::optional<GStageHit> {
        // Enforce the cached G-stage leaf permission: a miss here
        // routes the access to the full G-stage walk, which raises the
        // proper guest page fault.
        if (auto e = gStageTlb_.lookup(gpa_page); e && e->perm.allows(t))
            return GStageHit{pageAddr(e->ppn), e->perm};
        return std::nullopt;
    };
    gtlbHooks_.fill = [this](Addr gpa_page, Addr spa_page, Perm perm) {
        gStageTlb_.fill(gpa_page, spa_page, perm, Perm::rwx(), true);
    };
    pwcHooks_.lookup = [this](unsigned level, Addr va) {
        return vsPwc_.lookup(level, va);
    };
    pwcHooks_.fill = [this](unsigned level, Addr va, Pte pte) {
        vsPwc_.fill(level, va, pte);
    };
}

void
VirtMachine::setVsatp(Addr root_pa)
{
    vsatpRoot_ = root_pa;
    hfenceVvma();
    if (hfenceHook_)
        hfenceHook_(*this, /*gstage=*/false);
}

void
VirtMachine::setHgatp(Addr root_pa)
{
    hgatpRoot_ = root_pa;
    hfenceGvma();
    if (hfenceHook_)
        hfenceHook_(*this, /*gstage=*/true);
}

void
VirtMachine::restoreVirtState(Addr vsatp_root, Addr hgatp_root,
                              PrivMode guest_priv)
{
    vsatpRoot_ = vsatp_root;
    hgatpRoot_ = hgatp_root;
    guestPriv_ = guest_priv;
    hfenceGvma();
}

void
VirtMachine::hfenceVvma()
{
    combinedTlb_.flushAll();
    vsPwc_.flush();
}

void
VirtMachine::hfenceGvma()
{
    gStageTlb_.flushAll();
    hfenceVvma();
}

void
VirtMachine::coldReset()
{
    hfenceGvma();
    machine_.coldReset();
}

void
VirtMachine::registerStats(StatRegistry &registry)
{
    registry.add(&stats_);
    registry.add(&tlbStats_);
    registry.add(&gtlbStats_);
    registry.add(&vsPwcStats_);
    // A wrapped host hart's groups are registered by its owner (the
    // SmpSystem); adding them again here would collide in the registry.
    if (ownedMachine_)
        machine_.registerStats(registry);
}

void
VirtMachine::account(const BatchOutcome &b)
{
    statAccesses_ += b.accesses;
    statTlbHits_ += b.tlbHits;
    statWalks_ += b.accesses - b.tlbHits;
    statNptRefs_ += b.nptRefs;
    statGptRefs_ += b.gptRefs;
    statDataRefs_ += b.dataRefs;
    statPmptRefs_ += b.pmptRefs;
    statGTlbHits_ += b.gTlbHits;
    statFaults_ += b.faults;
}

AccessOutcome
VirtMachine::access(Addr gva, AccessType type)
{
    // A one-request batch, so both entry points count alike.
    const AccessRequest req{gva, type};
    AccessOutcome out;
    account(replayBatch({&req, 1}, &statWalkCycles_, false,
                        [&](const AccessRequest &r) -> const AccessOutcome & {
                            accessInner(r.va, r.type, out);
                            return out;
                        }));
    return out;
}

BatchOutcome
VirtMachine::accessBatch(std::span<const AccessRequest> reqs)
{
    const BatchOutcome b =
        replayBatch(reqs, &statWalkCycles_, false,
                    [this](const AccessRequest &req) {
                        AccessOutcome out;
                        accessInner(req.va, req.type, out);
                        return out;
                    });
    account(b);
    return b;
}

void
VirtMachine::accessInner(Addr gva, AccessType type, AccessOutcome &out)
{
    // Combined-TLB hit: the entry carries the real VS-stage U bit /
    // permissions, the real G-stage leaf permission and the inlined
    // physical permission, so the same checks fire as on the
    // full-walk path.
    if (machine_.tlbHit(combinedTlb_, gva, type, guestPriv_, attr_,
                        kGuestStage, out))
        return;

    // Full two-stage walk with the G-stage TLB and guest PWC hooks.
    TwoStageConfig config;
    TwoStageResult walk =
        walkTwoStage(machine_.mem(), vsatpRoot_, hgatpRoot_, gva, type,
                     guestPriv_, config, &gtlbHooks_, &pwcHooks_);
    out.gTlbHits = walk.gstageTlbHits;

    // Replay the supervisor-physical references. A poisoned GPT/NPT
    // page or guest data line is consumed before any TLB/PWC state is
    // derived from the poisoned bytes.
    Perm phys_perm; // the data reference's, inlined by the TLB fill
    for (const VirtRef &ref : walk.refs) {
        const bool is_data = ref.kind == VirtRefKind::Data;
        const AccessType ref_type =
            is_data ? type
                    : (ref.write ? AccessType::Store : AccessType::Load);
        out.fault = machine_.physRef(ref.spa, ref_type, originOf(ref), attr_,
                                     kGuestStage, out,
                                     is_data ? &phys_perm : nullptr);
        if (out.fault != Fault::None)
            return;
    }

    if (!walk.ok()) {
        out.fault = walk.fault;
        return;
    }

    DPRINTF(Walk, "3D gva=%#lx spa=%#lx npt=%u gpt=%u pmpt=%u cycles=%lu\n",
            gva, walk.spa, out.nptRefs, out.gptRefs, out.pmptRefs,
            (unsigned long)out.cycles);
    TRACE_EVENT(Walk, statAccesses_.value(), out.cycles, "3d_walk", gva,
                walk.spa);

    // Cache the combined translation at the largest size both stages
    // map contiguously, with the real leaf attributes.
    const unsigned level = walk.combinedLeafLevel();
    const uint64_t span = pageSizeAtLevel(level);
    combinedTlb_.fill(gva, walk.spa - (gva & (span - 1)), walk.perm,
                      phys_perm, walk.user, level, walk.gPerm);
}

} // namespace hpmp
