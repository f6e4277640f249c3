/**
 * @file
 * Workload execution helpers.
 *
 * Runner binds a Machine, a CoreModel and an AddressSpace: every
 * load/store goes through the full timing path, demand-paging faults
 * are serviced by the OS model (with a kernel-cost charge), and
 * SimArray provides typed arrays living in simulated memory so that
 * real algorithms (graph kernels, the KV store) can run on top.
 */

#ifndef HPMP_WORKLOADS_RUNNER_H
#define HPMP_WORKLOADS_RUNNER_H

#include <span>
#include <utility>
#include <vector>

#include "core/core_model.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "workloads/trace.h"

namespace hpmp
{

/** Executes one thread of work against an address space. */
class Runner
{
  public:
    /** Instruction charge for servicing one demand-paging fault. */
    static constexpr uint64_t kFaultKernelInstrs = 900;

    Runner(Kernel &kernel, AddressSpace &as, CoreModel &model);

    /** Timed load/store/fetch; transparently services page faults. */
    void load(Addr va) { accessChecked(va, AccessType::Load); }
    void store(Addr va) { accessChecked(va, AccessType::Store); }
    void fetch(Addr va) { accessChecked(va, AccessType::Fetch); }

    /** Timed 64-bit load returning the value (for real algorithms). */
    uint64_t load64(Addr va);

    /** Timed 64-bit store of a value. */
    void store64(Addr va, uint64_t value);

    /** Non-memory work. */
    void compute(uint64_t instrs) { model_.addInstructions(instrs); }

    /** Stream over [va, va+len) at cache-line granularity. */
    void streamRead(Addr va, uint64_t len);
    void streamWrite(Addr va, uint64_t len);

    /**
     * Timed batched replay: one Machine::accessBatch dispatch per
     * fault-free run of requests, with demand-paging faults serviced
     * in between exactly as in the per-access path. With a timing
     * stream open, each request goes through the stream in turn.
     */
    void runBatch(std::span<const AccessRequest> reqs);

    /**
     * Open a timing stream on the machine that charges this runner's
     * model (Machine::TimingStream): until it is destroyed, a helper
     * thread times every access. Read or reset the model only after.
     */
    Machine::TimingStream timingStream() { return {machine_, model_}; }

    CoreModel &model() { return model_; }
    AddressSpace &as() { return *as_; }
    Kernel &kernel() { return kernel_; }

    /** Record every access into `trace` (nullptr stops recording). */
    void setTrace(Trace *trace) { trace_ = trace; }

    uint64_t faultsServiced() const { return faults_; }

  private:
    /**
     * One access with fault handling. The outcome is built once, in
     * place, and only read here (DESIGN.md §5).
     */
    void
    accessChecked(Addr va, AccessType type)
    {
        if (trace_)
            trace_->append(va, type);
        const AccessOutcome out = chargedAccess(va, type);
        if (!out.ok())
            serviceFault(va, type, out.fault);
    }

    /**
     * One access charged to the model, a fault's cycles too (they
     * were burned): ended on the machine's open timing stream, whose
     * helper charges it, or timed and charged inline.
     */
    [[gnu::always_inline]] AccessOutcome
    chargedAccess(Addr va, AccessType type)
    {
        if (machine_.streamOpen())
            return machine_.streamAccess(va, type);
        const AccessOutcome out = machine_.access(va, type);
        model_.addAccess(out);
        return out;
    }

    /**
     * Page fault on `va`: let the OS model populate the page, charge
     * the kernel path, retry once (which must succeed).
     */
    void serviceFault(Addr va, AccessType type, Fault fault);

    Kernel &kernel_;
    Machine &machine_; //!< kernel_.machine(), fixed for the kernel's life
    AddressSpace *as_;
    CoreModel &model_;
    Trace *trace_ = nullptr;
    uint64_t faults_ = 0;
};

/**
 * A typed array in simulated memory. Element loads/stores are timed
 * through the runner (the full TLB/walk/check/cache path); the values
 * themselves are kept in a host-side mirror so that reading one back
 * does not require a second, functional translation — only this
 * array's accessors touch its contents, so the mirror is exact.
 */
template <typename T>
class SimArray
{
  public:
    SimArray(Runner &runner, uint64_t count, Perm perm = Perm::rw())
        : SimArray(runner, std::vector<T>(count), perm)
    {
    }

    /** Array holding `values`, moved into the mirror without a copy. */
    SimArray(Runner &runner, std::vector<T> values, Perm perm = Perm::rw())
        : runner_(&runner),
          mirror_(std::move(values))
    {
        base_ = runner.as().mmap(mirror_.size() * sizeof(T), perm, true,
                                 true);
    }

    Addr addrOf(uint64_t idx) const { return base_ + idx * sizeof(T); }
    uint64_t size() const { return mirror_.size(); }
    Addr base() const { return base_; }

    /** Timed element read. */
    T
    get(uint64_t idx)
    {
        runner_->load(addrOf(idx));
        return mirror_[idx];
    }

    /** Timed element write. */
    void
    set(uint64_t idx, T value)
    {
        runner_->store(addrOf(idx));
        mirror_[idx] = value;
    }

    /** Functional (untimed) initialization. */
    void init(uint64_t idx, T value) { mirror_[idx] = value; }

    /** Functional (untimed) read, for host-side verification. */
    T peek(uint64_t idx) const { return mirror_[idx]; }

  private:
    Runner *runner_;
    Addr base_ = 0;
    std::vector<T> mirror_;
};

} // namespace hpmp

#endif // HPMP_WORKLOADS_RUNNER_H
