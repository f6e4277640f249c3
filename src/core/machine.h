/**
 * @file
 * The end-to-end memory-access engine.
 *
 * Machine ties together the TLB, page-table walker, PWC, the HPMP
 * permission checker and the cache/DRAM hierarchy, reproducing the
 * reference streams of the paper's Figures 2 and 4:
 *
 *   - TLB hit: inlined permission, data reference only.
 *   - TLB miss: one reference per page-table level (modulo PWC hits),
 *     each preceded by a physical permission check; then the data
 *     reference with its own check. In table mode every check costs
 *     up to two pmpte references through the same cache hierarchy.
 *
 * The isolation *scheme* is not machine state — it is whatever the
 * secure monitor programmed into the HPMP entries. The machine simply
 * checks every actual physical reference.
 */

#ifndef HPMP_CORE_MACHINE_H
#define HPMP_CORE_MACHINE_H

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "base/attribution.h"
#include "base/fault_inject.h"
#include "base/stats.h"
#include "core/params.h"
#include "core/pwc.h"
#include "core/tlb.h"
#include "hpmp/hpmp_unit.h"
#include "hpmp/isolation.h"
#include "mem/hierarchy.h"
#include "mem/phys_mem.h"
#include "pt/walker.h"

namespace hpmp
{

/** Per-access outcome and reference breakdown. */
struct AccessOutcome
{
    Fault fault = Fault::None;
    uint64_t cycles = 0;
    bool tlbHit = false;
    unsigned ptRefs = 0;    //!< page-table page reads
    unsigned adRefs = 0;    //!< A/D-bit update writes
    unsigned pmptRefs = 0;  //!< permission-table entry references
    unsigned dataRefs = 0;  //!< the data/instruction reference itself
    unsigned pwcSkips = 0;  //!< PT references skipped by the PWC
    /** Meaningful when fault == MachineCheck: the poisoned physical
     *  address and what kind of reference consumed it. */
    Addr poisonAddr = 0;
    RefOrigin poisonOrigin = RefOrigin::Data;

    bool ok() const { return fault == Fault::None; }
    unsigned totalRefs() const
    {
        return ptRefs + adRefs + pmptRefs + dataRefs;
    }
};

/** Aggregate outcome of a batched replay (Machine::accessBatch). */
struct BatchOutcome
{
    uint64_t accesses = 0;
    uint64_t tlbHits = 0;
    uint64_t faults = 0;
    uint64_t cycles = 0;
    uint64_t ptRefs = 0;
    uint64_t adRefs = 0;
    uint64_t pmptRefs = 0;
    uint64_t dataRefs = 0;
    uint64_t pwcSkips = 0;
    /**
     * Requests consumed, including the faulting one when
     * `stop_on_fault` ended the batch early.
     */
    uint64_t completed = 0;
    Fault firstFault = Fault::None;

    uint64_t totalRefs() const
    {
        return ptRefs + adRefs + pmptRefs + dataRefs;
    }
};

/**
 * Permission verdict of a TLB hit (TLB inlining, §2.2/§7): the cached
 * leaf's R/W/X and U rules (SUM set), then the G-stage leaf permission
 * (rwx for single-stage entries, so a no-op for Machine), then the
 * inlined physical permission. The one copy of the hit checks: every
 * TLB hit of Machine and VirtMachine runs it.
 */
[[gnu::always_inline]] inline Fault
tlbHitFault(const TlbEntry &entry, AccessType type, PrivMode priv)
{
    Fault fault = checkLeafPerms(entry.perm, entry.user, type, priv, true);
    if (fault == Fault::None && !entry.gPerm.allows(type))
        fault = guestPageFaultFor(type);
    if (fault == Fault::None && !entry.physPerm.allows(type))
        fault = accessFaultFor(type);
    return fault;
}

/**
 * The timed data reference of an access: one hierarchy access (L1I
 * for fetches, L1D otherwise), attributed to RefOrigin::Data.
 * @return its cycles.
 */
[[gnu::always_inline]] inline uint64_t
dataReference(MemoryHierarchy &hier, RefAttribution &attr, Addr pa,
              AccessType type)
{
    const uint64_t cycles = hier.access(pa, type == AccessType::Fetch).cycles;
    attr.record(RefOrigin::Data, cycles);
    return cycles;
}

class CoreModel;

/** One simulated hart plus its memory system. */
class Machine
{
  public:
    explicit Machine(const MachineParams &params);

    /**
     * SMP hart constructor: the machine shares `shared_mem` with its
     * sibling harts (per-hart TLB/PWC/HPMP/caches stay private) and
     * names its stat groups `<stat_prefix>`, `<stat_prefix>.tlb`, ...
     * Hart 0 of an SmpSystem uses the default "machine" prefix so a
     * single-hart system dumps byte-identical stats to a standalone
     * Machine.
     */
    Machine(const MachineParams &params, PhysMem &shared_mem,
            const std::string &stat_prefix, unsigned hart_id);

    const MachineParams &params() const { return params_; }

    PhysMem &mem() { return *mem_; }
    MemoryHierarchy &hier() { return *hier_; }
    HpmpUnit &hpmp() { return *hpmp_; }
    Tlb &tlb() { return *tlb_; }
    Pwc &pwc() { return *pwc_; }

    /**
     * Point the MMU at a page table. A satp write implies a local
     * sfence.vma; when a remote-fence hook is installed (SmpSystem)
     * the write is also routed through it so sibling harts' cached
     * shared-PT state is fenced and accounted, never silently stale.
     */
    void setSatp(Addr root_pa, PagingMode mode);

    /**
     * Hook invoked after the local fence of every setSatp, with this
     * machine as the writing hart. Installed by SmpSystem; standalone
     * machines have none and pay nothing.
     */
    using SatpFenceHook = std::function<void(Machine &)>;
    void setSatpFenceHook(SatpFenceHook hook)
    {
        satpFenceHook_ = std::move(hook);
    }

    /** Hart index within an SmpSystem (0 for standalone machines). */
    unsigned hartId() const { return hartId_; }

    /** Disable translation (bare / M-mode style direct physical). */
    void setBare() { translationOn_ = false; }

    void setPriv(PrivMode priv) { priv_ = priv; }
    PrivMode priv() const { return priv_; }

    /** Current translation CSR state (migration checkpointing). */
    bool translationOn() const { return translationOn_; }
    Addr satpRoot() const { return satpRoot_; }
    PagingMode pagingMode() const { return mode_; }

    /** Perform one load/store/fetch at virtual address va. */
    [[gnu::always_inline]] AccessOutcome
    access(Addr va, AccessType type)
    {
        AccessOutcome out = accessInner(va, type);
        ++statAccesses_;
        if (!out.tlbHit && translationOn_) {
            ++statWalks_;
            statWalkCycles_.sample(out.cycles);
        }
        statPtRefs_ += out.ptRefs + out.adRefs;
        statPmptRefs_ += out.pmptRefs;
        if (out.fault != Fault::None)
            countFault(out.fault);
        return out;
    }

    /**
     * Replay a span of requests in one dispatch, updating the
     * "machine.*" counters in bulk. Each access is optionally charged
     * to `model`; with `stop_on_fault` the batch ends at the first
     * faulting request (already counted in `completed`), so callers
     * can service the fault and resume with the remaining span.
     */
    BatchOutcome accessBatch(std::span<const AccessRequest> reqs,
                             CoreModel *model = nullptr,
                             bool stop_on_fault = false);

    /** sfence.vma rs1=x0: flush TLB and PWC. */
    void sfenceVma();

    /** Flush TLB/PWC/PMPTW and all caches; close DRAM rows. */
    void coldReset();

    /**
     * Check one physical reference against the programmed HPMP state,
     * charging pmpte references to `out`. Public so the virtualized
     * machine can reuse it. When the check passes and `tlb_perm` is
     * set, it receives the physical permission to inline into a TLB
     * entry for pa: the one the check resolved, or a physPermProbe()
     * when the PMPTW-Cache answered — one permission walk per fill.
     */
    Fault checkPhys(Addr pa, AccessType type, AccessOutcome &out,
                    Perm *tlb_perm = nullptr);

    /**
     * Functional probe of the physical permission triple for a page
     * (used for TLB inlining; costs nothing).
     */
    Perm physPermProbe(Addr pa) const;

    /**
     * Whether a TLB hit may skip its data poison consumption: no
     * granule of physical memory is poisoned and the fault injector is
     * off, so neither the poison check nor its ras.poison_on_fill site
     * could fire.
     */
    bool
    fastHitOk() const
    {
        return mem_->poisonFree() && !FaultInjector::instance().enabled();
    }

    /** Aggregate counters ("machine.*"): accesses, walks, faults... */
    StatGroup &stats() { return stats_; }

    /** Per-origin reference counts/latencies ("machine.ref.*"). */
    const RefAttribution &refAttr() const { return attr_; }
    RefAttribution &refAttr() { return attr_; }

    /**
     * Register every stat group of this machine and its components
     * ("machine", "machine.tlb", "machine.pwc", "machine.hpmp",
     * "machine.hpmp.pmptw_cache") with a registry for dumping.
     */
    void registerStats(StatRegistry &registry);

  private:
    Machine(const MachineParams &params, std::unique_ptr<PhysMem> owned,
            PhysMem *shared, const std::string &stat_prefix,
            unsigned hart_id);

    MachineParams params_;
    std::unique_ptr<PhysMem> ownedMem_; //!< null when DRAM is shared
    PhysMem *mem_;
    std::unique_ptr<MemoryHierarchy> hier_;
    std::unique_ptr<HpmpUnit> hpmp_;
    std::unique_ptr<Tlb> tlb_;
    std::unique_ptr<Pwc> pwc_;

    bool translationOn_ = false;
    Addr satpRoot_ = 0;
    PagingMode mode_ = PagingMode::Sv39;
    PrivMode priv_ = PrivMode::Supervisor;
    unsigned hartId_ = 0;
    SatpFenceHook satpFenceHook_;

    /**
     * The access path proper (stats wrappers live in access() and
     * accessBatch()): an L1-TLB hit inline, everything else out of
     * line in accessMiss().
     */
    [[gnu::always_inline]] AccessOutcome
    accessInner(Addr va, AccessType type)
    {
        if (translationOn_) {
            if (const TlbEntry *entry = tlb_->lookupL1(va))
                return tlbHit(*entry, va, type, 0);
        }
        return accessMiss(va, type);
    }

    /**
     * A TLB hit, L1 or L2 (whose penalty arrives as `cycles`): the hit
     * checks, the data poison consumption unless fastHitOk(), then the
     * data reference. The inlined physical permission makes PMP/PMPT
     * activity unnecessary on hits (TLB inlining, §7).
     */
    [[gnu::always_inline]] AccessOutcome
    tlbHit(const TlbEntry &entry, Addr va, AccessType type, uint64_t cycles)
    {
        AccessOutcome out;
        out.cycles = cycles;
        out.tlbHit = true;
        out.fault = tlbHitFault(entry, type, priv_);
        if (out.fault != Fault::None)
            return out;
        const Addr pa = entry.translate(va);
        if (!fastHitOk()) {
            out.fault = dataPoisonCheck(pa, out);
            if (out.fault != Fault::None)
                return out;
        }
        out.cycles += dataReference(*hier_, attr_, pa, type);
        out.dataRefs = 1;
        return out;
    }

    /**
     * The access path after an L1-TLB miss, or with translation off:
     * an L2-TLB hit, else the walk with its physical checks, the data
     * reference and the TLB fill; in bare mode the checked data
     * reference alone.
     */
    AccessOutcome accessMiss(Addr va, AccessType type);

    /** Count a faulting access in the machine-level counters. */
    void countFault(Fault fault);

    /**
     * Consume poison on [pa, pa+len): returns MachineCheck (and tags
     * `out` with the address + origin) when the range carries an
     * uncorrectable-error mark, None otherwise. Fail closed: the
     * faulting reference never returns data.
     */
    Fault consumePoison(Addr pa, uint64_t len, RefOrigin origin,
                        AccessOutcome &out);

    /** Data-reference poison check, including the ras.poison_on_fill
     *  injection site (fires only when armed by name). */
    Fault dataPoisonCheck(Addr pa, AccessOutcome &out);

    StatGroup stats_;
    StatGroup tlbStats_;
    StatGroup pwcStats_;
    StatGroup hpmpStats_;
    StatGroup pmptwStats_;
    Counter statAccesses_;
    Counter statWalks_;
    Counter statPtRefs_;
    Counter statPmptRefs_;
    Counter statPageFaults_;
    Counter statAccessFaults_;
    Counter statMachineChecks_;
    Distribution statWalkCycles_; //!< end-to-end cycles of TLB-miss accesses
    RefAttribution attr_{stats_};

    static constexpr unsigned kL2TlbPenalty = 2;
};

} // namespace hpmp

#endif // HPMP_CORE_MACHINE_H
