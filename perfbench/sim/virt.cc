/**
 * @file
 * `virt`: a seeded guest access stream through the two-stage (3D)
 * walk under PMP / PMPT / HPMP / HPMP-GPT (Rocket). A hot set that the
 * TLBs hold, plus uniform excursions over a cold set eight times the
 * L2 TLB reach, with an hfence.vvma every kVvmaEvery requests and an
 * hfence.gvma every kGvmaEvery. Warmed with one full pass before the
 * measured rounds, like simperf `walk_heavy`.
 */

#include <memory>

#include "base/rng.h"
#include "base/stats.h"
#include "sim/report.h"
#include "workloads/virt_env.h"

namespace perfbench
{

using namespace hpmp;

namespace
{

constexpr unsigned kRequests = 1u << 18;
constexpr unsigned kHotPages = 64;
constexpr unsigned kColdPages = 8192;
constexpr unsigned kExcursionOneIn = 16;
constexpr unsigned kVvmaEvery = 1u << 14;
constexpr unsigned kGvmaEvery = 1u << 16;
constexpr unsigned kMaxRounds = 1000;
/** Set-up takes milliseconds; repeat it so setup_s is a steady median. */
constexpr unsigned kSetupRepeats = 3;

constexpr struct { VirtScheme scheme; const char *name; } kVirtSchemes[] = {
    {VirtScheme::Pmp, "pmp"},
    {VirtScheme::Pmpt, "pmpt"},
    {VirtScheme::Hpmp, "hpmp"},
    {VirtScheme::HpmpGpt, "hpmp_gpt"},
};

struct Rig
{
    std::unique_ptr<VirtEnv> env;
    std::vector<AccessRequest> stream;
    StatRegistry registry;
};

std::vector<AccessRequest>
makeStream(uint64_t seed, Addr hot, Addr cold)
{
    Rng rng(seed);
    std::vector<AccessRequest> reqs;
    reqs.reserve(kRequests);
    for (unsigned i = 0; i < kRequests; ++i) {
        const bool excursion = rng.below(kExcursionOneIn) == 0;
        const Addr base = excursion ? cold + pageAddr(rng.below(kColdPages))
                                    : hot + pageAddr(rng.below(kHotPages));
        const AccessType type =
            rng.chance(0.3) ? AccessType::Store : AccessType::Load;
        reqs.push_back({base + 8 * rng.below(kPageSize / 8), type});
    }
    return reqs;
}

/** One pass of the stream with its periodic fences. */
VirtBatchOutcome
replay(RunContext &ctx, Rig &rig, double &batch_seconds)
{
    VirtMachine &vm = rig.env->vm();
    const std::span<const AccessRequest> all(rig.stream);
    VirtBatchOutcome total;
    for (unsigned at = 0; at < kRequests; at += kVvmaEvery) {
        const auto t0 = std::chrono::steady_clock::now();
        VirtBatchOutcome out;
        {
            Span span(ctx.spans, "core.VirtMachine.accessBatch");
            out = vm.accessBatch(all.subspan(at, kVvmaEvery));
        }
        batch_seconds += since(t0);
        total.accesses += out.accesses;
        total.faults += out.faults;
        total.cycles += out.cycles;
        if ((at + kVvmaEvery) % kGvmaEvery == 0) {
            Span span(ctx.spans, "core.VirtMachine.hfenceGvma");
            vm.hfenceGvma();
        } else {
            Span span(ctx.spans, "core.VirtMachine.hfenceVvma");
            vm.hfenceVvma();
        }
    }
    return total;
}

void
buildRigs(RunContext &ctx, std::vector<Rig> &rigs)
{
    for (size_t i = 0; i < rigs.size(); ++i) {
        SetupTimer timer(ctx.report);
        {
            Span span(ctx.spans, "workloads.VirtEnv");
            rigs[i].env = std::make_unique<VirtEnv>(CoreKind::Rocket,
                                                    kVirtSchemes[i].scheme);
        }
        timer.envBuilt();
        {
            Span span(ctx.spans, "workloads.VirtEnv.mapGuestPages");
            const Addr hot = rigs[i].env->mapGuestPages(kHotPages);
            const Addr cold = rigs[i].env->mapGuestPages(kColdPages);
            rigs[i].stream = makeStream(ctx.seed, hot, cold);
        }
        timer.done();
    }
}

} // namespace

void
runVirt(RunContext &ctx)
{
    Report &rep = ctx.report;
    for (const auto &s : kVirtSchemes)
        rep.schemes.push_back(s.name);
    probeVirt(rep);

    std::vector<Rig> rigs;
    {
        Span setup(ctx.spans, "bench.setup");
        for (unsigned repeat = 0; repeat < kSetupRepeats; ++repeat) {
            rigs = std::vector<Rig>(std::size(kVirtSchemes));
            buildRigs(ctx, rigs);
        }
        for (Rig &rig : rigs) {
            double ignored = 0.0;
            rig.env->vm().coldReset();
            (void)replay(ctx, rig, ignored);
            rig.env->vm().registerStats(rig.registry);
            rig.registry.resetAll();
            rig.env->vm().hier().resetStats();
        }
    }

    runRounds(ctx, kMinRounds, kMaxRounds, [&](unsigned round) {
        uint64_t accesses = 0;
        double batch_seconds = 0.0;
        for (size_t i = 0; i < rigs.size(); ++i) {
            const VirtBatchOutcome out = replay(ctx, rigs[i], batch_seconds);
            accesses += out.accesses;
            if (round > 0)
                continue;
            const char *name = kVirtSchemes[i].name;
            rep.cells.push_back({"stream", name, double(out.cycles),
                                 out.accesses});
            rep.statsJson[name] = rigs[i].registry.dumpJson();
            rep.addMemCounters(name, rigs[i].env->vm().machine());
            rep.check(std::string("no_unexpected_fault.") + name,
                      out.faults == 0,
                      std::to_string(out.faults) + " faults");
        }
        rep.addHost("accessbatch_s", batch_seconds);
        rep.addHost("accessbatch_accesses", double(accesses));
        return accesses;
    });
}

} // namespace perfbench
