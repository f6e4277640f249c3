#include "workloads/rv8.h"

#include "base/rng.h"
#include "workloads/runner.h"

namespace hpmp
{

const std::vector<Rv8App> &
rv8Apps()
{
    // Instruction volumes chosen to land near Fig. 11-a's absolute
    // run times on the 1 GHz Rocket; patterns reflect each kernel's
    // locality class (norx streams over a larger state and shows the
    // largest table overhead in the paper; bigint is register-bound).
    static const std::vector<Rv8App> apps = {
        {"aes",       2800000000ULL, 0.30, 4_MiB,   MemPattern::Mixed,
         0.02},
        {"norx",      1700000000ULL, 0.34, 6_MiB,   MemPattern::Mixed,
         0.10},
        {"primes",    7700000000ULL, 0.05, 64_KiB,
         MemPattern::Sequential},
        {"sha512",    1400000000ULL, 0.33, 128_KiB,
         MemPattern::Sequential},
        {"qsort",     3400000000ULL, 0.35, 5_MiB,   MemPattern::Mixed,
         0.05},
        {"dhrystone", 3900000000ULL, 0.25, 64_KiB,
         MemPattern::Sequential},
        {"miniz",     5600000000ULL, 0.30, 5_MiB,   MemPattern::Mixed,
         0.04},
        {"bigint",    7700000000ULL, 0.18, 64_KiB,
         MemPattern::Sequential},
    };
    return apps;
}

double
runRv8App(TeeEnv &env, const Rv8App &app, uint64_t sample_accesses)
{
    auto enclave = env.createEnclave(std::max<uint64_t>(app.workingSet * 2,
                                                        8_MiB));
    env.enterEnclave(*enclave, PrivMode::User);

    CoreModel model = env.makeCoreModel();
    Runner r(*enclave->kernel, *enclave->as, model);

    const Addr buf = enclave->as->mmap(app.workingSet, Perm::rw(), true,
                                       true);
    Rng rng(0x8e5 ^ std::hash<std::string>{}(app.name));

    // Warm-up pass so the sampled region reflects steady state.
    for (Addr a = buf; a < buf + app.workingSet; a += 4096)
        r.load(a);
    model.reset();

    const double instr_per_access = 1.0 / app.memRatio;
    Addr seq = buf;
    {
        // The sample's accesses are timed on the helper thread.
        const Machine::TimingStream stream = r.timingStream();
        for (uint64_t i = 0; i < sample_accesses; ++i) {
            Addr va;
            switch (app.pattern) {
              case MemPattern::Sequential:
                seq += 8;
                if (seq >= buf + app.workingSet)
                    seq = buf;
                va = seq;
                break;
              case MemPattern::Random:
                va = buf + alignDown(rng.below(app.workingSet - 8), 8);
                break;
              case MemPattern::Mixed:
              default:
                if (!rng.chance(app.randomFrac)) {
                    seq += 8;
                    if (seq >= buf + app.workingSet)
                        seq = buf;
                    va = seq;
                } else {
                    va = buf + alignDown(rng.below(app.workingSet - 8), 8);
                }
                break;
            }
            if (rng.chance(0.3))
                r.store(va);
            else
                r.load(va);
            r.compute(uint64_t(instr_per_access));
        }
    }

    // Extrapolate: the sample's cycles represent sample_accesses of
    // the app's total memory operations.
    const double total_accesses = app.instructions * app.memRatio;
    const double scale = total_accesses / double(sample_accesses);
    const double seconds = model.seconds() * scale;

    env.exitToHost();
    env.destroyEnclave(std::move(enclave));
    return seconds;
}

} // namespace hpmp
