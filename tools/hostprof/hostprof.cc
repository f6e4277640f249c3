/**
 * @file
 * hostprof: a SIGPROF program-counter sampler loaded with LD_PRELOAD.
 *
 * Hosts without a `cpu` PMU give `perf` nothing to sample, and gprof
 * folds the simulator's always-inline hot path into whichever symbol
 * survives inlining. This library arms ITIMER_PROF for the process it
 * is preloaded into (that process's CPU time only), records the
 * interrupted program counter at each tick into a fixed buffer, and at
 * exit writes the executable mappings plus every sample to
 * `<HOSTPROF_OUT>.<pid>` (default prefix `hostprof`), headed by the
 * process's CPU time. The timer asks for a tick every 250 us; the
 * kernel delivers at most one per timer interrupt, so the real rate
 * may be lower.
 *
 * tools/hostprof/hostprof.py runs a command under it and resolves the
 * samples with `addr2line -i`, charging each to the innermost inline
 * frame that belongs to a simulator layer. No simulator target links
 * this library.
 */

#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace
{

constexpr size_t kMaxSamples = size_t(1) << 21; //!< 16 MiB of PCs

uint64_t gPcs[kMaxSamples];
std::atomic<size_t> gCount{0}; //!< ticks taken, kept or not
constexpr long kIntervalUs = 250;

uint64_t
pcOf(const void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
#if defined(__x86_64__)
    return uint64_t(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return uint64_t(uc->uc_mcontext.pc);
#else
#error "hostprof: unsupported architecture"
#endif
}

/**
 * Async-signal-safe: a lock-free fetch_add claims the slot, so ticks
 * delivered to different threads never share one.
 */
void
onTick(int, siginfo_t *, void *context)
{
    const size_t n = gCount.fetch_add(1, std::memory_order_relaxed);
    if (n < kMaxSamples)
        gPcs[n] = pcOf(context);
}

void
setTimer(long interval_us)
{
    itimerval timer{};
    timer.it_interval.tv_sec = interval_us / 1000000;
    timer.it_interval.tv_usec = interval_us % 1000000;
    timer.it_value = timer.it_interval;
    setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((constructor)) void
hostprofStart()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = onTick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, nullptr);
    setTimer(kIntervalUs);
}

/** Copy the executable mappings of /proc/self/maps into `out`. */
void
writeMaps(FILE *out)
{
    FILE *maps = std::fopen("/proc/self/maps", "r");
    if (!maps)
        return;
    char line[4096];
    while (std::fgets(line, sizeof(line), maps)) {
        unsigned long start, end, offset;
        char perms[8], path[4096] = "";
        if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &start, &end,
                        perms, &offset, path) < 4)
            continue;
        if (perms[2] == 'x' && path[0] == '/')
            std::fprintf(out, "map %lx %lx %lx %s\n", start, end, offset,
                         path);
    }
    std::fclose(maps);
}

__attribute__((destructor)) void
hostprofStop()
{
    setTimer(0);
    const char *prefix = std::getenv("HOSTPROF_OUT");
    char name[4096];
    std::snprintf(name, sizeof(name), "%s.%d", prefix ? prefix : "hostprof",
                  int(getpid()));
    FILE *out = std::fopen(name, "w");
    if (!out)
        return;
    // Ticks are delivered at the kernel's timer resolution at best, so
    // the sampled CPU time comes with the samples: a layer's host time
    // is its share of the samples times cpu_ns.
    timespec cpu{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    const size_t ticks = gCount.load(std::memory_order_relaxed);
    const size_t n = ticks < kMaxSamples ? ticks : kMaxSamples;
    std::fprintf(out,
                 "hostprof interval_us %ld samples %zu dropped %zu "
                 "cpu_ns %lld\n",
                 kIntervalUs, n, ticks - n,
                 (long long)cpu.tv_sec * 1000000000LL + cpu.tv_nsec);
    writeMaps(out);
    for (size_t i = 0; i < n; ++i)
        std::fprintf(out, "%lx\n", (unsigned long)gPcs[i]);
    std::fclose(out);
}

} // namespace
