/**
 * @file
 * LMBench-style OS-operation microbenchmarks (paper §8.2, Table 3).
 *
 * Each syscall is modelled as the memory behaviour of its Linux
 * implementation: a burst of scattered touches over kernel data
 * structures (fd tables, dentries, page cache), user copies, and —
 * for fork — real page-table construction: child PT frames are
 * allocated from the kernel's PT allocator (the contiguous pool under
 * HPMP, scattered frames otherwise) and written through timed stores,
 * so the isolation scheme's cost on PT pages shows up exactly where
 * the paper says it does.
 */

#ifndef HPMP_WORKLOADS_LMBENCH_H
#define HPMP_WORKLOADS_LMBENCH_H

#include <string>
#include <vector>

#include "base/rng.h"
#include "workloads/env.h"
#include "workloads/runner.h"

namespace hpmp
{

/** The syscalls of Table 3, in the paper's order. */
std::vector<std::string> lmbenchSyscalls();

/**
 * Additional LMBench operations beyond the paper's table: the
 * VM-centric ones (mmap/munmap, page-fault service, context switch)
 * stress exactly the paths the isolation schemes differ on.
 */
std::vector<std::string> lmbenchExtendedSyscalls();

/** The LMBench-like suite bound to one environment. */
class LmbenchSuite
{
  public:
    explicit LmbenchSuite(TeeEnv &env);
    ~LmbenchSuite();

    /**
     * Run `iters` calls of the named syscall and return the average
     * latency in microseconds.
     */
    double run(const std::string &name, unsigned iters = 200);

  private:
    void doNull(Runner &r);
    void doRead(Runner &r);
    void doWrite(Runner &r);
    void doStat(Runner &r);
    void doFstat(Runner &r);
    void doOpenClose(Runner &r);
    void doPipe(Runner &r);
    void doForkExit(Runner &r);
    void doForkExec(Runner &r);
    void doMmap(Runner &r);
    void doPageFault(Runner &r);
    void doCtxSwitch(Runner &r);

    /** n scattered kernel-structure touches (loads). */
    void kernelTouches(Runner &r, unsigned n);

    /** Copy len bytes kernel <-> user. */
    void userCopy(Runner &r, uint64_t len, bool to_user);

    /** fork: duplicate mm state + child page tables. */
    void forkBody(Runner &r, bool exec_after);

    TeeEnv &env_;
    std::unique_ptr<AddressSpace> as_;
    Addr kernelHeap_ = 0;   //!< scattered kernel structures
    Addr pageCache_ = 0;    //!< file data
    Addr userBuf_ = 0;      //!< user-side buffer
    Addr ptWindow_ = 0;     //!< kernel window onto child PT frames
    Addr faultArena_ = 0;   //!< demand-paged region for doPageFault
    Addr faultCursor_ = 0;
    std::unique_ptr<AddressSpace> otherAs_; //!< peer for ctx switches
    Rng rng_;

    static constexpr uint64_t kKernelHeapBytes = 128_MiB;
    static constexpr uint64_t kPageCacheBytes = 8_MiB;
    static constexpr uint64_t kUserBytes = 1_MiB;
    static constexpr uint64_t kFaultArenaBytes = 8_MiB;
};

} // namespace hpmp

#endif // HPMP_WORKLOADS_LMBENCH_H
