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
 *
 * VirtMachine runs the same pipeline (DESIGN.md §10): its hits go
 * through tlbHit() and its NPT, GPT and data references through
 * physRef(); only the walk driver and the AccessStage constants
 * differ.
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

/**
 * Per-access outcome and reference breakdown of either machine: a
 * host access fills the PT and A/D counts, a guest access the NPT,
 * GPT and G-TLB ones.
 */
struct AccessOutcome
{
    Fault fault = Fault::None;
    uint64_t cycles = 0;
    bool tlbHit = false;
    unsigned ptRefs = 0;    //!< page-table page reads
    unsigned adRefs = 0;    //!< A/D-bit update writes
    unsigned nptRefs = 0;   //!< nested-PT page references
    unsigned gptRefs = 0;   //!< guest-PT page references
    unsigned pmptRefs = 0;  //!< permission-table entry references
    unsigned dataRefs = 0;  //!< the data/instruction reference itself
    unsigned pwcSkips = 0;  //!< PT references skipped by the PWC
    unsigned gTlbHits = 0;  //!< G-stage walks short-circuited
    /** Meaningful when fault == MachineCheck: the poisoned physical
     *  address and what kind of reference consumed it. */
    Addr poisonAddr = 0;
    RefOrigin poisonOrigin = RefOrigin::Data;

    bool ok() const { return fault == Fault::None; }
    unsigned totalRefs() const
    {
        return ptRefs + adRefs + nptRefs + gptRefs + pmptRefs + dataRefs;
    }

    /** The reference count an origin's references add to. */
    unsigned &
    refsOf(RefOrigin origin)
    {
        if (origin <= RefOrigin::AdUpdate)
            return origin == RefOrigin::Data ? dataRefs : adRefs;
        if (origin <= RefOrigin::PtL4)
            return ptRefs;
        if (origin <= RefOrigin::GptL3)
            return gptRefs;
        if (origin <= RefOrigin::NptL3)
            return nptRefs;
        return pmptRefs;
    }
};

/** Aggregate outcome of a batched replay (either machine's accessBatch). */
struct BatchOutcome
{
    uint64_t accesses = 0;
    uint64_t tlbHits = 0;
    uint64_t faults = 0;
    uint64_t cycles = 0;
    uint64_t ptRefs = 0;
    uint64_t adRefs = 0;
    uint64_t nptRefs = 0;
    uint64_t gptRefs = 0;
    uint64_t pmptRefs = 0;
    uint64_t dataRefs = 0;
    uint64_t pwcSkips = 0;
    uint64_t gTlbHits = 0;
    /**
     * Requests consumed, including the faulting one when
     * `stop_on_fault` ended the batch early.
     */
    uint64_t completed = 0;
    Fault firstFault = Fault::None;

    uint64_t totalRefs() const
    {
        return ptRefs + adRefs + nptRefs + gptRefs + pmptRefs + dataRefs;
    }

    /** Add one access. */
    void
    add(const AccessOutcome &out)
    {
        ++completed;
        ++accesses;
        tlbHits += out.tlbHit;
        cycles += out.cycles;
        ptRefs += out.ptRefs;
        adRefs += out.adRefs;
        nptRefs += out.nptRefs;
        gptRefs += out.gptRefs;
        pmptRefs += out.pmptRefs;
        dataRefs += out.dataRefs;
        pwcSkips += out.pwcSkips;
        gTlbHits += out.gTlbHits;
        faults += !out.ok();
        if (firstFault == Fault::None)
            firstFault = out.fault;
    }
};

/**
 * The batch loop of both machines: run each request through `access`
 * (request -> AccessOutcome) and sum the outcomes. A TLB miss samples
 * its cycles into `walk_cycles` when that is set; with
 * `stop_on_fault` the batch ends at the first faulting request.
 */
template <typename AccessFn>
[[gnu::always_inline]] inline BatchOutcome
replayBatch(std::span<const AccessRequest> reqs, Distribution *walk_cycles,
            bool stop_on_fault, AccessFn &&access)
{
    BatchOutcome b;
    for (const AccessRequest &req : reqs) {
        const AccessOutcome out = access(req);
        b.add(out);
        if (!out.tlbHit && walk_cycles)
            walk_cycles->sample(out.cycles);
        if (!out.ok() && stop_on_fault)
            break;
    }
    return b;
}

/**
 * What differs between the single-stage (host) and the two-stage
 * (guest) pipeline besides the walk itself. Fixed per stage: no
 * parameter, flag or environment variable sets these.
 */
struct AccessStage
{
    uint64_t l2TlbPenalty;  //!< cycles an L2-TLB hit adds to an L1 hit
    bool poisonOnFillSite;  //!< data refs visit ras.poison_on_fill
};

/** The host pipeline: Machine's own accesses. */
inline constexpr AccessStage kHostStage{2, true};

/**
 * The guest pipeline: VirtMachine's accesses. Both values are
 * measured drifts from the host stage, kept so that simulated output
 * stays as measured (EXPERIMENTS.md "Known fidelity gaps"):
 *  - l2TlbPenalty 0: a combined-TLB L2 hit is free (gap 5);
 *  - poisonOnFillSite false: guest data references skip the
 *    ras.poison_on_fill site (gap 6).
 */
inline constexpr AccessStage kGuestStage{0, false};

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
     * charging pmpte references to `out`. When the check passes and
     * `tlb_perm` is set, it receives the physical permission to inline
     * into a TLB entry for pa: the one the check resolved, or a
     * physPermProbe() when the PMPTW-Cache answered — one permission
     * walk per fill.
     */
    Fault checkPhys(Addr pa, AccessType type, AccessOutcome &out,
                    Perm *tlb_perm = nullptr);

    /**
     * One physical reference of either pipeline — host PT, A/D, bare
     * or walk data; guest NPT, GPT or data: checkPhys() (pmptes
     * attributed to "machine.ref.*"), poison consumption tagged with
     * `origin` (visiting ras.poison_on_fill first for a data
     * reference of a stage that has the site), the timed hierarchy
     * access (L1I only for a fetch, which only a data reference is),
     * then `attr.record(origin, ...)` and the count in `out` that
     * `origin` selects. On a fault nothing past the failing step
     * happens.
     */
    Fault physRef(Addr pa, AccessType type, RefOrigin origin,
                  RefAttribution &attr, const AccessStage &stage,
                  AccessOutcome &out, Perm *tlb_perm = nullptr);

    /**
     * The TLB-hit path of either pipeline. Looks `va` up in `tlb`, L1
     * then L2 (whose hit costs `stage.l2TlbPenalty`); on a miss
     * returns false and leaves `out` alone. On a hit, fills `out`:
     * the cached leaf's R/W/X and U rules (SUM set), the G-stage leaf
     * permission (rwx for single-stage entries), the inlined physical
     * permission — so no PMP/PMPT activity (TLB inlining, §2.2/§7) —
     * then data poison consumption unless fastHitOk(), then the data
     * reference, attributed to `attr`.
     */
    [[gnu::always_inline]] bool
    tlbHit(Tlb &tlb, Addr va, AccessType type, PrivMode priv,
           RefAttribution &attr, const AccessStage &stage,
           AccessOutcome &out)
    {
        TlbHitLevel level = TlbHitLevel::Miss;
        const TlbEntry *entry = tlb.lookup(va, &level);
        if (!entry)
            return false;
        out.tlbHit = true;
        out.cycles = level == TlbHitLevel::L2 ? stage.l2TlbPenalty : 0;
        out.fault = checkLeafPerms(entry->perm, entry->user, type, priv,
                                   true);
        if (out.fault == Fault::None && !entry->gPerm.allows(type))
            out.fault = guestPageFaultFor(type);
        if (out.fault == Fault::None && !entry->physPerm.allows(type))
            out.fault = accessFaultFor(type);
        if (out.fault != Fault::None)
            return true;
        const Addr pa = entry->translate(va);
        if (!fastHitOk()) {
            out.fault = consumePoison(pa, RefOrigin::Data, out,
                                      stage.poisonOnFillSite);
            if (out.fault != Fault::None)
                return true;
        }
        const uint64_t cycles =
            hier_->access(pa, type == AccessType::Fetch).cycles;
        out.cycles += cycles;
        attr.record(RefOrigin::Data, cycles);
        out.dataRefs = 1;
        return true;
    }

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
     * accessBatch()): a TLB hit inline, everything else out of line
     * in accessMiss().
     */
    [[gnu::always_inline]] AccessOutcome
    accessInner(Addr va, AccessType type)
    {
        AccessOutcome out;
        if (translationOn_ &&
            tlbHit(*tlb_, va, type, priv_, attr_, kHostStage, out))
            return out;
        return accessMiss(va, type);
    }

    /**
     * The access path after a TLB miss, or with translation off: the
     * walk with its physical references, the data reference and the
     * TLB fill; in bare mode the data reference alone.
     */
    AccessOutcome accessMiss(Addr va, AccessType type);

    /** Count a faulting access in the machine-level counters. */
    void countFault(Fault fault);

    /**
     * Consume poison on the 8 bytes at pa, first visiting the
     * ras.poison_on_fill injection site (fires only when armed by
     * name) when `fill_site` is set: returns MachineCheck (and tags
     * `out` with the address + origin) when the range carries an
     * uncorrectable-error mark, None otherwise. Fail closed: the
     * faulting reference never returns data.
     */
    Fault consumePoison(Addr pa, RefOrigin origin, AccessOutcome &out,
                        bool fill_site = false);

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
};

} // namespace hpmp

#endif // HPMP_CORE_MACHINE_H
