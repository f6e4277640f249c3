/**
 * @file
 * `gap`: GAP kernels on Kron graphs under PMP / PMPT / HPMP (Rocket).
 *
 * tc-kron is the TLB-hit path (about 0.01 walks per 1000 accesses);
 * bc-kron on the 2^18-vertex graph walks about 40 times per 1000
 * accesses because its CSR footprint exceeds the L2 TLB reach and the
 * LLC. tc-kron runs on a 2^15-vertex graph: on 2^18 one cell takes
 * 13-16 s of host time, which no run length here allows, and its
 * per-access cost is the hit path either way.
 */

#include <memory>

#include "base/stats.h"
#include "sim/report.h"
#include "workloads/gap.h"

namespace perfbench
{

using namespace hpmp;

namespace
{

struct GapCell
{
    const char *kernel;
    unsigned scale;
};

constexpr GapCell kCells[] = {{"tc-kron", 15}, {"bc-kron", 18}};

/**
 * Rounds take about 7 s, so a run makes few; four timed rounds after
 * the warm-up keep the per-round host time steady.
 */
constexpr unsigned kGapMinRounds = kMinRounds + 2;
/** Enclave memory grows by a few MiB per bc-kron run; stay well clear. */
constexpr unsigned kMaxRounds = 6;

struct Rig
{
    std::unique_ptr<TeeEnv> env;
    std::vector<std::unique_ptr<GapSuite>> suites; //!< one per kCells entry
    StatRegistry registry;
};

} // namespace

void
runGap(RunContext &ctx)
{
    Report &rep = ctx.report;
    for (const SchemeDef &s : kSchemes)
        rep.schemes.push_back(s.name);
    probeSv39(rep);

    std::vector<Rig> rigs(std::size(kSchemes));
    {
        Span setup(ctx.spans, "bench.setup");
        for (size_t i = 0; i < rigs.size(); ++i) {
            SetupTimer timer(rep);
            EnvConfig config;
            config.core = CoreKind::Rocket;
            config.scheme = kSchemes[i].scheme;
            {
                Span span(ctx.spans, "workloads.TeeEnv");
                rigs[i].env = std::make_unique<TeeEnv>(config);
            }
            timer.envBuilt();
            for (const GapCell &cell : kCells) {
                Span span(ctx.spans, "workloads.GapSuite");
                rigs[i].suites.push_back(
                    std::make_unique<GapSuite>(*rigs[i].env, cell.scale));
            }
            timer.done();
            rigs[i].env->machine().registerStats(rigs[i].registry);
            rigs[i].env->monitor().registerStats(rigs[i].registry);
            rigs[i].registry.resetAll();
            rigs[i].env->machine().hier().resetStats();
        }
    }

    runRounds(ctx, kGapMinRounds, kMaxRounds, [&](unsigned round) {
        uint64_t accesses = 0;
        for (size_t c = 0; c < std::size(kCells); ++c) {
            const std::string cellKey =
                "cell_s." + std::string(kCells[c].kernel);
            for (size_t i = 0; i < rigs.size(); ++i) {
                Machine &m = rigs[i].env->machine();
                const uint64_t before = m.stats().get("accesses");
                const auto t0 = std::chrono::steady_clock::now();
                double seconds = 0.0;
                {
                    Span span(ctx.spans, "workloads.GapSuite.run");
                    seconds = rigs[i].suites[c]->run(kCells[c].kernel);
                }
                rep.addHost(cellKey, since(t0));
                // A round is long: sample host speed between cells too.
                referenceKernel(rep);
                const uint64_t made = m.stats().get("accesses") - before;
                accesses += made;
                if (round == 0)
                    rep.cells.push_back({kCells[c].kernel, kSchemes[i].name,
                                         seconds, made});
            }
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
