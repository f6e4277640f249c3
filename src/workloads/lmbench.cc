#include "workloads/lmbench.h"

#include "base/logging.h"

namespace hpmp
{

std::vector<std::string>
lmbenchSyscalls()
{
    return {"null", "read", "write", "stat", "fstat", "open/close",
            "pipe", "fork+exit", "fork+exec"};
}

LmbenchSuite::LmbenchSuite(TeeEnv &env)
    : env_(env),
      rng_(0x1abe1)
{
    // A long-running system's physical memory is fragmented: kernel
    // structures spread across the whole region, so permission-table
    // lines do not coalesce (§8.8 is the dedicated study).
    env_.hostKernel().dataAllocator().setScatter(true, 0x05ca7);
    as_ = env_.hostKernel().createAddressSpace();
    CoreModel setup_model = env_.makeCoreModel();
    Runner setup(env_.hostKernel(), *as_, setup_model);

    kernelHeap_ = as_->mmap(kKernelHeapBytes, Perm::rw(), false, true);
    pageCache_ = as_->mmap(kPageCacheBytes, Perm::rw(), false, true);
    userBuf_ = as_->mmap(kUserBytes, Perm::rw(), true, true);
    // A window of 8 pages for child page-table frames (remapped per
    // fork).
    ptWindow_ = 0x70000000;
}

std::vector<std::string>
lmbenchExtendedSyscalls()
{
    return {"mmap", "pagefault", "ctxsw"};
}

LmbenchSuite::~LmbenchSuite() = default;

void
LmbenchSuite::kernelTouches(Runner &r, unsigned n)
{
    // fd tables, task structs, dentries... scattered across the
    // kernel heap with mild locality (two touches per line pair).
    for (unsigned i = 0; i < n; ++i) {
        const Addr va = kernelHeap_ +
            alignDown(rng_.below(kKernelHeapBytes - 64), 8);
        r.load(va);
        if (i % 4 == 0)
            r.store(va);
    }
}

void
LmbenchSuite::userCopy(Runner &r, uint64_t len, bool to_user)
{
    const Addr src = to_user ? pageCache_ + pageAddr(rng_.below(
                                   kPageCacheBytes / kPageSize))
                             : userBuf_;
    const Addr dst = to_user ? userBuf_ : pageCache_;
    r.streamRead(src, len);
    r.streamWrite(dst, len);
    r.compute(len / 8);
}

void
LmbenchSuite::doNull(Runner &r)
{
    r.compute(80);
    kernelTouches(r, 2);
}

void
LmbenchSuite::doRead(Runner &r)
{
    r.compute(500);
    kernelTouches(r, 8);
    userCopy(r, 512, true);
}

void
LmbenchSuite::doWrite(Runner &r)
{
    r.compute(420);
    kernelTouches(r, 6);
    userCopy(r, 512, false);
}

void
LmbenchSuite::doStat(Runner &r)
{
    // Path walk: many dentry/inode touches.
    r.compute(2200);
    kernelTouches(r, 34);
}

void
LmbenchSuite::doFstat(Runner &r)
{
    r.compute(460);
    kernelTouches(r, 7);
}

void
LmbenchSuite::doOpenClose(Runner &r)
{
    r.compute(4800);
    kernelTouches(r, 70);
}

void
LmbenchSuite::doPipe(Runner &r)
{
    // Two context switches plus buffer copies. RISC-V Linux flushes
    // the TLB on context switch (no ASIDs on these cores).
    env_.machine().sfenceVma();
    r.compute(11000);
    kernelTouches(r, 150);
    env_.machine().sfenceVma();
    userCopy(r, 512, false);
    userCopy(r, 512, true);
}

void
LmbenchSuite::forkBody(Runner &r, bool exec_after)
{
    Machine &m = env_.machine();
    Kernel &kernel = env_.hostKernel();

    // The fork path context-switches into the child and back: the TLB
    // and PWC are flushed (RISC-V Linux without ASIDs).
    m.sfenceVma();

    // Duplicate task/mm structures.
    r.compute(exec_after ? 240000 : 220000);
    kernelTouches(r, 700);

    // Child page-table construction: allocate real PT frames from the
    // kernel's PT allocator and write them through timed stores. The
    // frames' physical placement (contiguous pool vs. scattered) is
    // exactly what distinguishes HPMP from the baselines here.
    constexpr unsigned kChildPtPages = 6;
    Addr frames[kChildPtPages];
    for (unsigned i = 0; i < kChildPtPages; ++i) {
        frames[i] = kernel.allocPtFrames(1);
        const Addr va = ptWindow_ + i * kPageSize;
        as_->mapFrameAt(va, frames[i], Perm::rw(), false);
        // Zero the page, then copy parent PTEs into it: one pass of
        // stores plus a read-modify pattern over the used entries.
        r.streamWrite(va, kPageSize);
        for (unsigned e = 0; e < 48; ++e)
            r.store(va + e * 8 * 8);
    }
    m.sfenceVma();

    if (exec_after) {
        // exec: map fresh text/data and fault them in.
        const Addr img = as_->mmap(64 * kPageSize, Perm::rwx(), true,
                                   false);
        for (unsigned i = 0; i < 64; ++i)
            r.load(img + i * kPageSize);
        r.compute(60000);
        as_->munmap(img, 64 * kPageSize);
    }

    // exit: tear the child down again (another switch pair).
    m.sfenceVma();
    r.compute(40000);
    kernelTouches(r, 250);
    for (unsigned i = 0; i < kChildPtPages; ++i) {
        const Addr va = ptWindow_ + i * kPageSize;
        as_->pageTable().unmap(va);
        kernel.freePtFrame(frames[i]);
    }
    m.sfenceVma();
}

void
LmbenchSuite::doMmap(Runner &r)
{
    // mmap + munmap of 64 pages: VMA bookkeeping plus PTE stores into
    // a real PT frame (placement decided by the kernel policy).
    Machine &m = env_.machine();
    Kernel &kernel = env_.hostKernel();
    r.compute(2600);
    kernelTouches(r, 12);

    const Addr frame = kernel.allocPtFrames(1);
    const Addr va = ptWindow_ + 7 * kPageSize;
    as_->mapFrameAt(va, frame, Perm::rw(), false);
    for (unsigned e = 0; e < 64; ++e)
        r.store(va + e * 8);
    // munmap: clear them again and flush the TLB for the range.
    for (unsigned e = 0; e < 64; ++e)
        r.store(va + e * 8);
    as_->pageTable().unmap(va);
    kernel.freePtFrame(frame);
    m.sfenceVma();
    r.compute(1800);
}

void
LmbenchSuite::doPageFault(Runner &r)
{
    // Touch a never-populated page: trap + allocation + PTE install +
    // zeroing, all through the Runner's fault path. An exhausted arena
    // is unmapped before the next is mapped, as lat_pagefault does,
    // so a long run holds at most one arena of frames.
    if (faultArena_ == 0 ||
        faultCursor_ >= faultArena_ + kFaultArenaBytes) {
        if (faultArena_ != 0)
            as_->munmap(faultArena_, kFaultArenaBytes);
        faultArena_ =
            as_->mmap(kFaultArenaBytes, Perm::rw(), true, false);
        faultCursor_ = faultArena_;
    }
    r.store(faultCursor_);
    r.streamWrite(faultCursor_, kPageSize); // zero the fresh page
    faultCursor_ += kPageSize;
    r.compute(400);
}

void
LmbenchSuite::doCtxSwitch(Runner &r)
{
    // Two processes ping-ponging: scheduler work plus satp switch and
    // the TLB flush that RISC-V without ASIDs implies.
    Machine &m = env_.machine();
    if (!otherAs_) {
        otherAs_ = env_.hostKernel().createAddressSpace();
        otherAs_->mmap(64 * kPageSize, Perm::rw(), true, true);
    }
    r.compute(1900);
    kernelTouches(r, 24);
    m.setSatp(otherAs_->rootPa(),
              env_.hostKernel().config().pagingMode);
    m.setSatp(as_->rootPa(), env_.hostKernel().config().pagingMode);
    kernelTouches(r, 24);
}

void
LmbenchSuite::doForkExit(Runner &r)
{
    forkBody(r, false);
}

void
LmbenchSuite::doForkExec(Runner &r)
{
    forkBody(r, true);
}

double
LmbenchSuite::run(const std::string &name, unsigned iters)
{
    env_.exitToHost();
    env_.hostKernel().activate(*as_, PrivMode::Supervisor);

    CoreModel model = env_.makeCoreModel();
    Runner r(env_.hostKernel(), *as_, model);

    auto dispatch = [&](Runner &runner) {
        if (name == "null") doNull(runner);
        else if (name == "read") doRead(runner);
        else if (name == "write") doWrite(runner);
        else if (name == "stat") doStat(runner);
        else if (name == "fstat") doFstat(runner);
        else if (name == "open/close") doOpenClose(runner);
        else if (name == "pipe") doPipe(runner);
        else if (name == "fork+exit") doForkExit(runner);
        else if (name == "fork+exec") doForkExec(runner);
        else if (name == "mmap") doMmap(runner);
        else if (name == "pagefault") doPageFault(runner);
        else if (name == "ctxsw") doCtxSwitch(runner);
        else fatal("unknown syscall model '%s'", name.c_str());
    };

    // Warm up once, then measure.
    dispatch(r);
    model.reset();
    const unsigned effective = name.rfind("fork", 0) == 0
                                   ? std::max(1u, iters / 20)
                                   : iters;
    for (unsigned i = 0; i < effective; ++i)
        dispatch(r);
    return model.seconds() * 1e6 / effective;
}

} // namespace hpmp
