/**
 * @file
 * `lmbench`: the Table 3 syscalls plus the extended VM operations
 * (mmap, pagefault, ctxsw) under PMP / PMPT / HPMP on BOOM, 120
 * iterations each as in Table 3. This is the write / PT-construction /
 * sfence / OS-fault path that `gap` barely touches.
 */

#include <memory>

#include "base/stats.h"
#include "sim/report.h"
#include "workloads/lmbench.h"

namespace perfbench
{

using namespace hpmp;

namespace
{

constexpr unsigned kIters = 120;
constexpr unsigned kMaxRounds = 1000;

struct Rig
{
    std::unique_ptr<TeeEnv> env;
    std::unique_ptr<LmbenchSuite> suite;
    StatRegistry registry;
};

} // namespace

void
runLmbench(RunContext &ctx)
{
    Report &rep = ctx.report;
    for (const SchemeDef &s : kSchemes)
        rep.schemes.push_back(s.name);
    probeSv39(rep);

    std::vector<std::string> ops = lmbenchSyscalls();
    rep.simScalars["table3_ops"] = double(ops.size());
    for (const std::string &op : lmbenchExtendedSyscalls())
        ops.push_back(op);

    std::vector<Rig> rigs(std::size(kSchemes));
    {
        Span setup(ctx.spans, "bench.setup");
        for (size_t i = 0; i < rigs.size(); ++i) {
            SetupTimer timer(rep);
            EnvConfig config;
            config.core = CoreKind::Boom;
            config.scheme = kSchemes[i].scheme;
            {
                Span span(ctx.spans, "workloads.TeeEnv");
                rigs[i].env = std::make_unique<TeeEnv>(config);
            }
            timer.envBuilt();
            {
                Span span(ctx.spans, "workloads.LmbenchSuite");
                rigs[i].suite = std::make_unique<LmbenchSuite>(*rigs[i].env);
            }
            timer.done();
            TeeEnv &env = *rigs[i].env;
            env.machine().registerStats(rigs[i].registry);
            env.monitor().registerStats(rigs[i].registry);
            env.hostKernel().registerStats(rigs[i].registry);
            rigs[i].registry.resetAll();
            env.machine().hier().resetStats();
        }
    }

    runRounds(ctx, kMinRounds, kMaxRounds, [&](unsigned round) {
        uint64_t accesses = 0;
        for (const std::string &op : ops) {
            const auto t0 = std::chrono::steady_clock::now();
            for (size_t i = 0; i < rigs.size(); ++i) {
                Machine &m = rigs[i].env->machine();
                const uint64_t before = m.stats().get("accesses");
                double us = 0.0;
                {
                    Span span(ctx.spans, "workloads.LmbenchSuite.run");
                    us = rigs[i].suite->run(op, kIters);
                }
                const uint64_t made = m.stats().get("accesses") - before;
                accesses += made;
                if (round == 0)
                    rep.cells.push_back({op, kSchemes[i].name, us, made});
            }
            rep.addHost("cell_s." + op, since(t0));
        }
        if (round == 0) {
            for (size_t i = 0; i < rigs.size(); ++i) {
                rep.statsJson[kSchemes[i].name] = rigs[i].registry.dumpJson();
                rep.addMemCounters(kSchemes[i].name, rigs[i].env->machine());
                const StatGroup &ms = rigs[i].env->machine().stats();
                rep.check(std::string("no_unexpected_fault.") +
                              kSchemes[i].name,
                          ms.get("access_faults") == 0 &&
                              ms.get("machine_checks") == 0);
            }
        }
        return accesses;
    });
}

} // namespace perfbench
