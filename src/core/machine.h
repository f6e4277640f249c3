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
#include <thread>

#include "base/attribution.h"
#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/stats.h"
#include "core/params.h"
#include "core/pwc.h"
#include "core/ref_ring.h"
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

    /** Add one access's counts; its cycles come from the ReplayTail. */
    void
    add(const AccessOutcome &out)
    {
        ++completed;
        ++accesses;
        tlbHits += out.tlbHit;
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

class CoreModel;

/**
 * The per-request tail of a batch replay or a timing stream, given a
 * request's total cycles: add them to the sum, sample them into
 * `walkCycles` on a TLB miss, and charge the access to `model`; either
 * pointer may be null. On the split schedule the helper thread runs
 * it.
 */
struct ReplayTail
{
    Distribution *walkCycles = nullptr;
    CoreModel *model = nullptr;
    uint64_t cycles = 0; //!< the batch's sum so far

    void operator()(uint64_t req_cycles, bool tlb_hit);
};

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

    /** The cache hierarchy; only the helper touches it while a timing
     *  stream is open. */
    MemoryHierarchy &
    hier()
    {
        panic_if(splitRing_, "hier() with a timing stream open");
        return *hier_;
    }
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
    void
    setBare()
    {
        // A stream samples walk cycles by the mode it was opened in.
        panic_if(splitRing_, "translation turned off under a timing stream");
        translationOn_ = false;
    }

    void setPriv(PrivMode priv) { priv_ = priv; }
    PrivMode priv() const { return priv_; }

    /** Current translation CSR state (migration checkpointing). */
    bool translationOn() const { return translationOn_; }
    Addr satpRoot() const { return satpRoot_; }
    PagingMode pagingMode() const { return mode_; }

    /**
     * Perform one load/store/fetch at virtual address va, timed
     * inline: `cycles` is its whole cost. Not with a timing stream
     * open, whose helper alone knows the cycles (streamAccess()).
     */
    [[gnu::always_inline]] AccessOutcome
    access(Addr va, AccessType type)
    {
        panic_if(splitRing_, "access() with a timing stream open");
        AccessOutcome out;
        accessInner(va, type, out);
        countAccess(out);
        if (!out.tlbHit && translationOn_)
            statWalkCycles_.sample(out.cycles);
        return out;
    }

    /**
     * A run-scoped timing stream (DESIGN.md §5): from construction to
     * destruction a helper thread times every physical reference of
     * the machine and runs each request's ReplayTail (`walk_cycles`
     * and the CoreModel the stream charges), in request order, while
     * the caller's thread translates and checks. Requests go through
     * streamAccess(); access(), accessBatch(), hier(), coldReset(),
     * refAttr() and the charged model's cycles(), seconds() and
     * reset() panic while it is open. Destruction (also on unwinding)
     * drains the ring and joins the helper. With Walk tracing on it
     * opens nothing and the machine keeps timing inline.
     */
    class TimingStream
    {
      public:
        TimingStream(Machine &machine, CoreModel &model);
        ~TimingStream();
        TimingStream(const TimingStream &) = delete;
        TimingStream &operator=(const TimingStream &) = delete;

      private:
        friend class Machine;

        /** replayBatch()'s stream: resolve against `attr`, run `tail`;
         *  opens only when `split` is set. */
        TimingStream(Machine &machine, RefAttribution &attr,
                     ReplayTail &tail, bool split);

        /** Start the helper and point timeRef() at the ring. */
        void open(RefAttribution &attr, ReplayTail &tail);

        Machine &machine_;
        ReplayTail runTail_; //!< a run-scoped stream's tail
        CoreModel *charged_ = nullptr; //!< the model the tail charges
        std::thread helper_; //!< joinable while the stream is open
    };

    /** Whether a timing stream is open on this machine. */
    bool streamOpen() const { return splitRing_; }

    /**
     * One access on the open timing stream: as access(), but the
     * stream's helper times it, samples its walk cycles and charges it
     * to the stream's CoreModel. `cycles` holds only what the caller
     * charged itself (an L2-TLB penalty, the PMPTW-Cache lookup).
     */
    [[gnu::always_inline]] AccessOutcome
    streamAccess(Addr va, AccessType type)
    {
        AccessOutcome out;
        accessInner(va, type, out);
        countAccess(out);
        endOnRing(out);
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

    /**
     * Shortest batch for which replayBatch() opens a timing stream of
     * its own. The measured hand-off costs 40-50 us per stream (helper
     * start, the last drain and join), and overlapping the timing
     * saves about 30 ns per request, so on the perfbench virt stream a
     * split batch pays from 1500-2000 requests (4-vCPU x86 VM;
     * EXPERIMENTS.md "Decoupled batch timing"); 4096 keeps twice that.
     * Tenants' 16-256-request bursts stay inline. GAP, RV8 and Redis
     * runs open one stream for a whole measured phase of 10^5-10^8
     * requests instead. LMBench runs open one per phase, the warm-up
     * call (3 requests for null) and the measured loop (up to about
     * 26k requests for pipe): a perfbench round of 72 such streams and
     * 0.33 M requests pays their hand-offs and still gains overall.
     */
    static constexpr size_t kSplitBatchMin = 4096;

    /**
     * The batch loop of both machines: run each request through
     * `access` (request -> AccessOutcome, by value or by reference;
     * bound, not copied), add its counts to the outcome and pass its
     * cycles to the ReplayTail (`walk_cycles`, `model`); with
     * `stop_on_fault` the batch ends at the first faulting request.
     * `attr` is the attribution `access` records into.
     *
     * A batch of at least kSplitBatchMin requests, with Walk tracing
     * off (its lines print a walk's cycles), runs on a TimingStream of
     * its own, closed before this returns: the caller's thread keeps
     * translation, checks, TLB/PWC/PMPTW updates, poison and faults,
     * and the helper times every physical reference and runs the tail
     * in request order. Every other batch times each reference inline.
     * Both schedules give the same numbers (DESIGN.md §5). Panics with
     * a stream already open: its requests go through streamAccess().
     */
    template <typename AccessFn>
    BatchOutcome replayBatch(std::span<const AccessRequest> reqs,
                             RefAttribution &attr,
                             Distribution *walk_cycles, CoreModel *model,
                             bool stop_on_fault, AccessFn &&access);

    /**
     * Timing streams opened on this machine, run-scoped or by a batch
     * of it or of a VirtMachine over it (not a statistic: every
     * simulated number is the same on either schedule).
     */
    uint64_t streamsOpened() const { return streamsOpened_; }

    /** sfence.vma rs1=x0: flush TLB and PWC. */
    void sfenceVma();

    /** Flush TLB/PWC/PMPTW and all caches; close DRAM rows. Not with a
     *  timing stream open. */
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
        timeRef(pa, type == AccessType::Fetch, RefOrigin::Data, attr, out);
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

    /** Per-origin reference counts/latencies ("machine.ref.*"); the
     *  helper writes them while a timing stream is open. */
    const RefAttribution &
    refAttr() const
    {
        panic_if(splitRing_, "refAttr() with a timing stream open");
        return attr_;
    }

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
     * in accessMiss(). Fills the caller's default-constructed `out`
     * in place, so an access builds its outcome exactly once
     * (DESIGN.md §5).
     */
    [[gnu::always_inline]] void
    accessInner(Addr va, AccessType type, AccessOutcome &out)
    {
        if (!translationOn_ ||
            !tlbHit(*tlb_, va, type, priv_, attr_, kHostStage, out))
            accessMiss(va, type, out);
    }

    /**
     * The access path after a TLB miss, or with translation off: the
     * walk with its physical references, the data reference and the
     * TLB fill; in bare mode the data reference alone. Fills `out`,
     * which a missed tlbHit() left default-constructed.
     */
    void accessMiss(Addr va, AccessType type, AccessOutcome &out);

    /** Count a faulting access in the machine-level counters. */
    void countFault(Fault fault);

    /** Count one access in the "machine.*" counters, its walk-cycle
     *  sample aside. */
    [[gnu::always_inline]] void
    countAccess(const AccessOutcome &out)
    {
        ++statAccesses_;
        statWalks_ += !out.tlbHit && translationOn_;
        statPtRefs_ += out.ptRefs + out.adRefs;
        statPmptRefs_ += out.pmptRefs;
        if (out.fault != Fault::None)
            countFault(out.fault);
    }

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

    /**
     * Time one physical reference through the hierarchy (L1I for a
     * fetch): a pmpte reference adds the PMPTW step and is recorded in
     * this machine's "machine.ref.*", any other in `attr`. Returns the
     * reference's cycles. The only hierarchy access of both pipelines.
     */
    uint64_t
    resolveRef(Addr pa, bool fetch, RefOrigin origin, RefAttribution &attr)
    {
        const bool pmpte = origin >= RefOrigin::PmpteRoot;
        const uint64_t cycles = (pmpte ? params_.pmptwStepCycles : 0) +
                                hier_->access(pa, fetch).cycles;
        (pmpte ? attr_ : attr).record(origin, cycles);
        return cycles;
    }

    /**
     * The timing step of every physical reference: resolved at once
     * into `out.cycles`, or, with a timing stream open, appended to
     * the ring for the helper to resolve with the stream's
     * attribution.
     */
    [[gnu::always_inline]] void
    timeRef(Addr pa, bool fetch, RefOrigin origin, RefAttribution &attr,
            AccessOutcome &out)
    {
        if (splitRing_)
            splitRing_->push(origin == RefOrigin::Data && endsAtData(out)
                                 ? RefRing::hitDataSlot(pa, fetch)
                                 : RefRing::refSlot(pa, fetch, origin));
        else
            out.cycles += resolveRef(pa, fetch, origin, attr);
    }

    /**
     * Whether a request's data reference, when it makes one, also ends
     * it on the ring: a TLB hit that charged itself no cycles makes no
     * other reference and charges nothing after it.
     */
    static bool
    endsAtData(const AccessOutcome &out)
    {
        return out.tlbHit && out.cycles == 0;
    }

    /** End a request on the open stream: its end slot on the ring,
     *  unless its data reference already ended it. */
    [[gnu::always_inline]] void
    endOnRing(const AccessOutcome &out)
    {
        if (!(endsAtData(out) && out.dataRefs))
            splitRing_->push(RefRing::endSlot(out.cycles, out.tlbHit));
    }

    /** End a request: its tail now, or on the open stream. */
    void
    finishRequest(const AccessOutcome &out, ReplayTail &tail)
    {
        if (!splitRing_)
            tail(out.cycles, out.tlbHit);
        else
            endOnRing(out);
    }

    /** Whether a batch of `n` requests opens a timing stream. */
    static bool splits(size_t n);

    /** Whether Walk tracing is on, which keeps timing inline: its
     *  lines print a walk's cycles. */
    static bool walkTraced();

    /** The helper's body: drain the ring, resolving and finishing. */
    void drainRing(RefAttribution &attr, ReplayTail &tail);

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
    // A timing stream's helper writes the walk-cycle distribution and
    // the attribution while the caller writes the counters above and
    // reads splitRing_ below: cache lines of their own, or every write
    // of either thread pulls the line away from the other.
    alignas(64) Distribution statWalkCycles_; //!< end-to-end cycles of TLB-miss accesses
    RefAttribution attr_{stats_};

    /** The timing streams' ring, allocated by the first stream. */
    alignas(64) std::unique_ptr<RefRing> ring_;
    /** ring_ while a timing stream is open, else null (time inline). */
    RefRing *splitRing_ = nullptr;
    uint64_t streamsOpened_ = 0; //!< timing streams opened
};

template <typename AccessFn>
BatchOutcome
Machine::replayBatch(std::span<const AccessRequest> reqs,
                     RefAttribution &attr, Distribution *walk_cycles,
                     CoreModel *model, bool stop_on_fault,
                     AccessFn &&access)
{
    panic_if(splitRing_, "a batch replay with a timing stream open");
    BatchOutcome b;
    ReplayTail tail{walk_cycles, model};
    {
        const TimingStream stream(*this, attr, tail, splits(reqs.size()));
        for (const AccessRequest &req : reqs) {
            const AccessOutcome &out = access(req);
            b.add(out);
            finishRequest(out, tail);
            if (!out.ok() && stop_on_fault)
                break;
        }
    } // joins the helper: `tail` is final
    b.cycles = tail.cycles;
    return b;
}

} // namespace hpmp

#endif // HPMP_CORE_MACHINE_H
