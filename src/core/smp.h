/**
 * @file
 * SMP machine model: N harts over one physical memory.
 *
 * SmpSystem owns N Machines that share a single PhysMem (and with it
 * the DRAM-resident page tables and PMP Tables) while keeping every
 * per-hart structure private: TLB, PWC, HPMP register file and
 * PMPTW-Cache, L1/L2 caches. That split is exactly what makes remote
 * fences a correctness problem — a monitor mutation reprograms the
 * *initiating* hart's view synchronously, but every other hart keeps
 * serving translations from its own cached state until an IPI reaches
 * it (the shootdown window, DESIGN.md §9).
 *
 * Everything here is deterministic: the interleaving scheduler is a
 * seeded xoshiro stream (or strict round-robin), so any concurrency
 * failure replays exactly from {seed, hart count, op count}.
 *
 * The secure monitor runs only over an SmpSystem, so a single-machine
 * setup (TeeEnv, every paper figure) is a one-hart system. That system
 * is bit-identical to a standalone Machine: hart 0 keeps the "machine"
 * stat prefix, remote loops are empty, and no IPI cost or stat moves.
 */

#ifndef HPMP_CORE_SMP_H
#define HPMP_CORE_SMP_H

#include <functional>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "core/machine.h"

namespace hpmp
{

class VirtMachine;

/**
 * Steps of the modelled IPI/remote-fence protocol, published to the
 * interleave hook so checkers can inject victim-hart accesses at every
 * boundary of the shootdown window.
 */
enum class IpiPhase : uint8_t
{
    WindowBegin, //!< initiator committed new state; no IPI sent yet
    Posted,      //!< IPI posted to dstHart, not yet delivered
    Delivered,   //!< dstHart ran its fence handler (synced + flushed)
    Acked,       //!< dstHart's ack observed by the initiator
    WindowEnd,   //!< all harts fenced and acked; window closed
    SatpFence,   //!< remote fence from a satp write (no layout change)
    HfenceFence, //!< remote guest fence from a vsatp/hgatp write
    /**
     * A later layout commit joined an already-open coalesced shootdown
     * window (srcHart == dstHart == the committing hart). Checkers
     * must refresh their mid-window oracle here: the canonical state
     * the window will fence everyone to just moved forward.
     */
    CoalescedCommit,
};

const char *toString(IpiPhase phase);

/** One step of a shootdown, as seen by the interleave hook. */
struct IpiEvent
{
    IpiPhase phase = IpiPhase::WindowBegin;
    unsigned srcHart = 0; //!< initiating hart
    unsigned dstHart = 0; //!< target hart (== srcHart for window marks)
    uint64_t seq = 0;     //!< shootdown sequence number, monotonic
};

/**
 * Observer interleaved into every IPI protocol step. The monitor (and
 * the satp fence path) call this *mid-window*, which is the whole
 * point: implementations drive accesses on other harts while some of
 * them are still unfenced, to hunt stale-translation grants.
 */
class InterleaveHook
{
  public:
    virtual ~InterleaveHook() = default;
    virtual void onIpiStep(const IpiEvent &event) = 0;
};

struct SmpParams
{
    unsigned harts = 1;
    uint64_t schedSeed = 1;  //!< seed of the interleaving stream
    bool roundRobin = false; //!< strict RR instead of the seeded stream
};

/**
 * One hart's translation CSR state, as captured for a whole-domain
 * migration checkpoint (DESIGN.md §12). Pure architectural values — no
 * cached microarchitectural state travels with a migration, so the
 * destination hart starts cold and its first guest access pays the
 * full hgatp-switch + TLB-miss walk.
 */
struct HartContext
{
    bool translationOn = false;
    Addr satpRoot = 0;
    PagingMode pagingMode = PagingMode::Sv39;
    PrivMode priv = PrivMode::Supervisor;
    bool virt = false; //!< the three virt fields below are meaningful
    Addr vsatpRoot = 0;
    Addr hgatpRoot = 0;
    PrivMode guestPriv = PrivMode::Supervisor;
};

class SmpSystem
{
  public:
    SmpSystem(const MachineParams &mp, const SmpParams &sp);
    ~SmpSystem();

    unsigned numHarts() const { return unsigned(harts_.size()); }
    Machine &hart(unsigned h) { return *harts_.at(h); }
    const Machine &hart(unsigned h) const { return *harts_.at(h); }
    PhysMem &mem() { return *mem_; }
    const SmpParams &params() const { return params_; }

    /**
     * The hart executing now — monitor calls attribute their work (and
     * skip the self-IPI) to this hart. Pure bookkeeping: the caller
     * drives one hart at a time, this records which.
     */
    unsigned currentHart() const { return currentHart_; }
    void setCurrentHart(unsigned h);

    /** Scheduler: next hart in the deterministic interleaving. */
    unsigned pickHart();

    /**
     * External scheduler-decision controller (the model checker):
     * while installed, pickHart() asks the hook for the next hart
     * instead of the seeded stream or the round-robin cursor, so every
     * pickHart-level choice becomes a recordable, replayable decision
     * of an explicit-state enumeration. Clear with nullptr.
     */
    using SchedHook = std::function<unsigned(unsigned numHarts)>;
    void setSchedHook(SchedHook hook) { schedHook_ = std::move(hook); }

    /**
     * Run one closure per hart, interleaved by the scheduler until
     * every task has returned false ("done"). Each invocation runs one
     * *step* of the task on its hart; currentHart() tracks the choice.
     */
    using HartTask = std::function<bool(Machine &)>;
    void runInterleaved(std::vector<HartTask> tasks);

    /** Install (or clear, with nullptr) the interleave observer. */
    void setInterleaveHook(InterleaveHook *hook) { hook_ = hook; }

    /** Publish one protocol step to the hook (monitor/satp paths). */
    void notifyStep(const IpiEvent &event);

    /** Next shootdown sequence number (monotonic, shared). */
    uint64_t nextIpiSeq() { return ++ipiSeq_; }

    /**
     * The global monitor lock: one monitor call in flight at a time.
     * tryAcquire fails (and counts the contention) when another hart
     * holds it — the caller surfaces MonitorError::LockContended
     * without touching any state.
     */
    bool tryAcquireMonitorLock(unsigned hart);
    void releaseMonitorLock(unsigned hart);
    bool monitorLocked() const { return lockHeld_; }
    unsigned lockOwner() const { return lockOwner_; }

    /**
     * Attach a VirtMachine to every hart (idempotent). Guests share
     * the physical memory through their host harts; vsatp/hgatp writes
     * on any guest route through hfenceShootdown, so remote harts are
     * fenced with the same IPI accounting Machine::setSatp gets from
     * the satp shootdown.
     */
    void enableVirt();
    bool virtEnabled() const { return !virtHarts_.empty(); }
    VirtMachine &virtHart(unsigned h) { return *virtHarts_.at(h); }

    /**
     * Capture hart `h`'s translation CSRs for a migration checkpoint
     * (suspend/extract). Read-only: the source hart keeps running.
     */
    HartContext extractHartContext(unsigned h) const;

    /**
     * Install a captured context on hart `h`. satp goes through
     * setSatp (local sfence + satp shootdown) and the virt state
     * through setVsatp/setHgatp (hfence shootdowns), so siblings are
     * fenced with full IPI accounting and the hart arrives with cold
     * TLBs — exactly the state a freshly migrated-in vCPU must resume
     * from. Contexts with `virt` set require virtEnabled().
     */
    void applyHartContext(unsigned h, const HartContext &ctx);

    /**
     * Record one elided guest-fence shootdown: the monitor skipped the
     * hfence IPIs because the layout diff was empty (same-domain
     * re-switch fast path).
     */
    void noteHfenceElided() { ++statHfenceElided_; }

    /** "smp" group: satp shootdowns, lock traffic, hook steps. */
    StatGroup &stats() { return stats_; }

    /**
     * Register the "smp" group plus every hart's groups ("machine",
     * "hart<N>.machine", ...) with a registry for dumping.
     */
    void registerStats(StatRegistry &registry);

  private:
    /** Remote-fence handler for a satp write on hart `writer`. */
    void satpShootdown(Machine &writer);

    /** Remote-fence handler for a vsatp/hgatp write on `writer`. */
    void hfenceShootdown(VirtMachine &writer, bool gstage);

    SmpParams params_;
    std::unique_ptr<PhysMem> mem_;
    std::vector<std::unique_ptr<Machine>> harts_;
    std::vector<std::unique_ptr<VirtMachine>> virtHarts_;
    Rng schedRng_;
    SchedHook schedHook_;
    unsigned rrNext_ = 0;
    unsigned currentHart_ = 0;
    InterleaveHook *hook_ = nullptr;
    uint64_t ipiSeq_ = 0;

    bool lockHeld_ = false;
    unsigned lockOwner_ = 0;

    StatGroup stats_{"smp"};
    Counter statSatpShootdowns_;   //!< satp writes that fenced siblings
    Counter statSatpRemoteFences_; //!< per-hart remote fences performed
    Counter statSatpIpiRetries_;   //!< lost satp IPIs re-sent (never skipped)
    Counter statHfenceShootdowns_;   //!< vsatp/hgatp writes fencing siblings
    Counter statHfenceRemoteFences_; //!< per-hart remote guest fences
    Counter statHfenceIpiRetries_;   //!< lost hfence IPIs re-sent
    Counter statHfenceElided_;       //!< guest fences skipped on empty diffs
    Counter statLockAcquisitions_;
    Counter statLockContended_;
    Counter statSchedPicks_;
    Counter statHookSteps_;
};

} // namespace hpmp

#endif // HPMP_CORE_SMP_H
