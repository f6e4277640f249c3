#include "core/machine.h"

#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/trace.h"
#include "core/core_model.h"

namespace hpmp
{

Machine::Machine(const MachineParams &params)
    : Machine(params, std::make_unique<PhysMem>(params.physMemBytes),
              nullptr, "machine", 0)
{
}

Machine::Machine(const MachineParams &params, PhysMem &shared_mem,
                 const std::string &stat_prefix, unsigned hart_id)
    : Machine(params, nullptr, &shared_mem, stat_prefix, hart_id)
{
}

Machine::Machine(const MachineParams &params, std::unique_ptr<PhysMem> owned,
                 PhysMem *shared, const std::string &stat_prefix,
                 unsigned hart_id)
    : params_(params),
      ownedMem_(std::move(owned)),
      mem_(shared ? shared : ownedMem_.get()),
      hier_(std::make_unique<MemoryHierarchy>(params.hier)),
      hpmp_(std::make_unique<HpmpUnit>(*mem_, params.hpmpEntries,
                                       params.pmptwEntries)),
      tlb_(std::make_unique<Tlb>(params.l1TlbEntries, params.l2TlbEntries)),
      pwc_(std::make_unique<Pwc>(params.pwcEntries)),
      hartId_(hart_id),
      stats_(stat_prefix),
      tlbStats_(stat_prefix + ".tlb"),
      pwcStats_(stat_prefix + ".pwc"),
      hpmpStats_(stat_prefix + ".hpmp"),
      pmptwStats_(stat_prefix + ".hpmp.pmptw_cache")
{
    stats_.add("accesses", &statAccesses_);
    stats_.add("walks", &statWalks_);
    stats_.add("pt_refs", &statPtRefs_);
    stats_.add("pmpt_refs", &statPmptRefs_);
    stats_.add("page_faults", &statPageFaults_);
    stats_.add("access_faults", &statAccessFaults_);
    stats_.add("machine_checks", &statMachineChecks_);
    stats_.add("walk_cycles", &statWalkCycles_);
    tlb_->registerStats(tlbStats_);
    pwc_->registerStats(pwcStats_);
    hpmp_->registerStats(hpmpStats_);
    hpmp_->pmptwCache().registerStats(pmptwStats_);
}

void
Machine::registerStats(StatRegistry &registry)
{
    registry.add(&stats_);
    registry.add(&tlbStats_);
    registry.add(&pwcStats_);
    registry.add(&hpmpStats_);
    registry.add(&pmptwStats_);
}

void
Machine::setSatp(Addr root_pa, PagingMode mode)
{
    translationOn_ = true;
    satpRoot_ = root_pa;
    mode_ = mode;
    sfenceVma();
    if (satpFenceHook_)
        satpFenceHook_(*this);
}

void
Machine::sfenceVma()
{
    tlb_->flushAll();
    pwc_->flush();
}

void
Machine::coldReset()
{
    sfenceVma();
    hpmp_->flushCache();
    hier_->flushAll();
}

Fault
Machine::consumePoison(Addr pa, RefOrigin origin, AccessOutcome &out,
                       bool fill_site)
{
    if (fill_site && FAULT_POINT_NAMED("ras.poison_on_fill"))
        mem_->poisonLine(pa);
    if (!mem_->isPoisoned(pa, 8))
        return Fault::None;
    out.poisonAddr = pa;
    out.poisonOrigin = origin;
    return Fault::MachineCheck;
}

void
Machine::countFault(Fault fault)
{
    if (fault == Fault::MachineCheck)
        ++statMachineChecks_;
    else if (fault == Fault::LoadAccessFault ||
             fault == Fault::StoreAccessFault ||
             fault == Fault::FetchAccessFault)
        ++statAccessFaults_;
    else
        ++statPageFaults_;
}

Fault
Machine::checkPhys(Addr pa, AccessType type, AccessOutcome &out,
                   Perm *tlb_perm)
{
    HpmpCheckResult check = hpmp_->check(pa, 8, type, priv_);
    // The walker emits its references root-first, so the first ref's
    // level tells us how deep this table is (for root/mid/leaf
    // attribution). A PMPTW-Cache hit emits no references at all.
    const unsigned levels =
        check.pmptRefs.empty() ? 0 : check.pmptRefs[0].level + 1;
    for (const PmptRef &ref : check.pmptRefs) {
        const uint64_t ref_cycles =
            params_.pmptwStepCycles + hier_->access(ref.pa).cycles;
        out.cycles += ref_cycles;
        attr_.record(pmptOrigin(ref.level, levels), ref_cycles);
        ++out.pmptRefs;
        // A poisoned pmpte read is an uncorrectable error consumed by
        // the walker itself. The HPMP walk above already filled the
        // PMPTW cache from the poisoned bytes, so flush it — nothing
        // derived from poison may stay cached (fail closed).
        if (consumePoison(ref.pa, pmptOrigin(ref.level, levels), out) !=
            Fault::None) {
            hpmp_->flushCache();
            return Fault::MachineCheck;
        }
    }
    if (check.viaCache)
        ++out.cycles; // PMPTW-Cache lookup
    if (tlb_perm && check.ok())
        *tlb_perm = check.viaCache ? physPermProbe(pa) : check.perm;
    return check.fault;
}

Perm
Machine::physPermProbe(Addr pa) const
{
    return priv_ == PrivMode::Machine ? Perm::rwx() : hpmp_->probe(pa);
}

Fault
Machine::physRef(Addr pa, AccessType type, RefOrigin origin,
                 RefAttribution &attr, const AccessStage &stage,
                 AccessOutcome &out, Perm *tlb_perm)
{
    Fault fault = checkPhys(pa, type, out, tlb_perm);
    if (fault == Fault::None) {
        fault = consumePoison(pa, origin, out,
                              origin == RefOrigin::Data &&
                                  stage.poisonOnFillSite);
    }
    if (fault != Fault::None)
        return fault;
    const uint64_t cycles =
        hier_->access(pa, type == AccessType::Fetch).cycles;
    out.cycles += cycles;
    attr.record(origin, cycles);
    ++out.refsOf(origin);
    return Fault::None;
}

BatchOutcome
Machine::accessBatch(std::span<const AccessRequest> reqs, CoreModel *model,
                     bool stop_on_fault)
{
    const BatchOutcome b = replayBatch(
        reqs, translationOn_ ? &statWalkCycles_ : nullptr, stop_on_fault,
        [&](const AccessRequest &req) {
            const AccessOutcome out = accessInner(req.va, req.type);
            if (model)
                model->addAccess(out);
            if (!out.ok())
                countFault(out.fault);
            return out;
        });
    statAccesses_ += b.accesses;
    if (translationOn_)
        statWalks_ += b.accesses - b.tlbHits;
    statPtRefs_ += b.ptRefs + b.adRefs;
    statPmptRefs_ += b.pmptRefs;
    return b;
}

AccessOutcome
Machine::accessMiss(Addr va, AccessType type)
{
    AccessOutcome out;

    if (!translationOn_) {
        // Bare mode: the physical check still applies (e.g. the host
        // OS running with PMP enabled but paging off).
        out.fault = physRef(va, type, RefOrigin::Data, attr_, kHostStage,
                            out);
        return out;
    }

    // TLB miss: functional walk first, then replay its references
    // through the PWC, the protection checker and the hierarchy.
    WalkConfig config;
    config.mode = mode_;
    WalkResult walk = walkPageTable(*mem_, satpRoot_, va, type, priv_,
                                    config);

    for (const PtRef &ref : walk.refs) {
        if (!ref.write && pwc_->lookup(ref.level, va)) {
            ++out.pwcSkips;
            continue;
        }
        // The walker's reference must itself pass the physical check.
        // A poisoned PT page is consumed there, before the PWC fill
        // below, so poison-derived PTEs are never cached.
        out.fault = physRef(ref.pa,
                            ref.write ? AccessType::Store : AccessType::Load,
                            originOf(ref), attr_, kHostStage, out);
        if (out.fault != Fault::None)
            return out;
        if (!ref.write) {
            const Pte pte{mem_->read64(ref.pa)};
            if (pte.v())
                pwc_->fill(ref.level, va, pte);
        }
    }

    if (!walk.ok()) {
        out.fault = walk.fault;
        return out;
    }

    // Data reference with its own physical check, which also yields
    // the permission the TLB entry inlines.
    Perm phys_perm;
    out.fault = physRef(walk.pa, type, RefOrigin::Data, attr_, kHostStage,
                        out, &phys_perm);
    if (out.fault != Fault::None)
        return out;

    DPRINTF(Walk, "va=%#lx pa=%#lx pt=%u ad=%u pmpt=%u cycles=%lu\n",
            va, walk.pa, out.ptRefs, out.adRefs, out.pmptRefs,
            (unsigned long)out.cycles);
    TRACE_EVENT(Walk, statAccesses_.value(), out.cycles, "walk", va,
                walk.pa);

    const uint64_t span = pageSizeAtLevel(walk.leafLevel);
    tlb_->fill(va, walk.pa - (va & (span - 1)), walk.perm, phys_perm,
               walk.user, walk.leafLevel);
    return out;
}

} // namespace hpmp
