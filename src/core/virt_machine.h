/**
 * @file
 * Virtualized-environment machine (paper §6, Figures 8 and 13).
 *
 * Wraps a Machine with the hypervisor-extension translation path:
 * guest accesses walk the guest page table (vsatp, Sv39) through the
 * nested page table (hgatp, Sv39x4), and every supervisor-physical
 * reference — NPT page, guest-PT page or data — goes through the
 * host's Machine::physRef, the same step as the host's own walk
 * references; a combined-TLB hit goes through Machine::tlbHit (the
 * one pipeline, DESIGN.md §10). Separate combined and
 * G-stage TLBs plus a guest PWC give hfence.vvma / hfence.gvma their
 * distinct costs.
 *
 * Combined-TLB entries carry the real VS-stage leaf U bit and level
 * and the real G-stage leaf permission, so a hit reproduces exactly
 * the faults the full two-stage walk plus physical check would have
 * raised (TLB inlining, §2.2/§7).
 */

#ifndef HPMP_CORE_VIRT_MACHINE_H
#define HPMP_CORE_VIRT_MACHINE_H

#include <memory>
#include <span>
#include <string>

#include "core/machine.h"
#include "pt/two_stage.h"

namespace hpmp
{

/**
 * Former names of the guest outcome types, now the shared
 * AccessOutcome / BatchOutcome with the NPT, GPT and G-TLB counts
 * filled. Kept for the perfbench driver sources, which name them.
 */
using VirtAccessOutcome = AccessOutcome;
using VirtBatchOutcome = BatchOutcome;

/** A guest hart running under the hypervisor extension. */
class VirtMachine
{
  public:
    explicit VirtMachine(const MachineParams &params);

    /**
     * Wrap an existing host hart (owned elsewhere, e.g. by an
     * SmpSystem). The host machine's stat groups stay registered by
     * its owner; this instance registers only the virt groups, named
     * `<stat_prefix>`, `<stat_prefix>.tlb`, and so on.
     */
    VirtMachine(Machine &host, const std::string &stat_prefix);

    Machine &machine() { return machine_; }
    PhysMem &mem() { return machine_.mem(); }
    HpmpUnit &hpmp() { return machine_.hpmp(); }
    MemoryHierarchy &hier() { return machine_.hier(); }
    unsigned hartId() const { return machine_.hartId(); }

    /**
     * Fired after a vsatp/hgatp write has applied its local fence
     * (`gstage` tells which kind), so an SMP owner can extend the
     * flush to sibling harts with IPI/remote-fence accounting, the way
     * Machine::setSatp routes through the satp shootdown.
     */
    using HfenceHook = std::function<void(VirtMachine &, bool gstage)>;
    void setHfenceHook(HfenceHook hook) { hfenceHook_ = std::move(hook); }

    /**
     * Guest-table switch: hfence.vvma semantics — guest and combined
     * translations drop, G-stage entries survive.
     */
    void setVsatp(Addr root_pa);
    /** Nested-table switch: hfence.gvma drops everything guest-held. */
    void setHgatp(Addr root_pa);
    void setGuestPriv(PrivMode priv) { guestPriv_ = priv; }

    Addr vsatpRoot() const { return vsatpRoot_; }
    Addr hgatpRoot() const { return hgatpRoot_; }
    PrivMode guestPriv() const { return guestPriv_; }

    /**
     * Restore the virt CSR state captured by a monitor transaction and
     * drop every cached translation (local hfence.gvma) without firing
     * the hfence hook: rollback fences each hart itself, and a nested
     * shootdown from inside the rollback would recurse.
     */
    void restoreVirtState(Addr vsatp_root, Addr hgatp_root,
                          PrivMode guest_priv);

    /** One guest load/store/fetch (the hlv.d path of §8.6). */
    AccessOutcome access(Addr gva, AccessType type);

    /**
     * Batched guest replay: one dispatch for the whole request span,
     * with stats updated in bulk. Faulting accesses are counted and
     * skipped, as in trace replay.
     */
    BatchOutcome accessBatch(std::span<const AccessRequest> reqs);

    /** hfence.vvma: drop guest translations, keep G-stage ones. */
    void hfenceVvma();

    /** hfence.gvma: drop G-stage and combined translations. */
    void hfenceGvma();

    /** Cold caches + all TLBs. */
    void coldReset();

    /** Aggregate counters ("virt_machine.*"). */
    StatGroup &stats() { return stats_; }

    /** TLB/PWC structures, exposed for flush-contract assertions. */
    Tlb &combinedTlb() { return combinedTlb_; }
    Tlb &gStageTlb() { return gStageTlb_; }

    /** Per-origin guest reference counts/latencies ("virt_machine.ref.*"). */
    const RefAttribution &refAttr() const { return attr_; }

    /**
     * Register this machine's groups ("virt_machine", its TLB/PWC
     * children) plus the wrapped host machine's groups with a registry.
     */
    void registerStats(StatRegistry &registry);

  private:
    /** Common body of both public constructors. */
    VirtMachine(std::unique_ptr<Machine> owned, Machine *host,
                const std::string &stat_prefix);

    /**
     * The access path proper (stats wrappers live in access() and
     * accessBatch()): a combined-TLB hit, else the two-stage walk
     * with its physical references, the data reference and the fill.
     * Fills the caller's default-constructed `out` in place.
     */
    void accessInner(Addr gva, AccessType type, AccessOutcome &out);

    /** Add replayed accesses to the "virt_machine.*" counters. */
    void account(const BatchOutcome &b);

    std::unique_ptr<Machine> ownedMachine_; //!< set by the owning ctor
    Machine &machine_;                      //!< owned or wrapped host
    Tlb combinedTlb_;  //!< gva -> spa with inlined permissions
    Tlb gStageTlb_;    //!< gpa page -> spa page, with G-stage perms
    Pwc vsPwc_;        //!< guest-PTE cache

    Addr vsatpRoot_ = 0;
    Addr hgatpRoot_ = 0;
    PrivMode guestPriv_ = PrivMode::Supervisor;
    HfenceHook hfenceHook_;

    /** Walk hooks, built once (std::function setup is not free). */
    GStageTlbHooks gtlbHooks_;
    VsPwcHooks pwcHooks_;

    StatGroup stats_;
    StatGroup tlbStats_;
    StatGroup gtlbStats_;
    StatGroup vsPwcStats_;
    Counter statAccesses_;
    Counter statTlbHits_;
    Counter statWalks_;
    Counter statNptRefs_;
    Counter statGptRefs_;
    Counter statDataRefs_;
    Counter statPmptRefs_;
    Counter statGTlbHits_;
    Counter statFaults_;
    // Written by a split batch's helper: cache lines of their own, as
    // in Machine.
    alignas(64) Distribution statWalkCycles_; //!< end-to-end cycles of 3D-walk accesses
    RefAttribution attr_{stats_};
};

} // namespace hpmp

#endif // HPMP_CORE_VIRT_MACHINE_H
