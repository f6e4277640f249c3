/**
 * @file
 * Figure 11: RV8 (absolute seconds, Rocket) and the GAP graph suite
 * (latency normalized to Penglai-PMP, Rocket and BOOM), under
 * Penglai-PMP / Penglai-PMPT / Penglai-HPMP.
 */

#include "bench/common.h"
#include "workloads/gap.h"
#include "workloads/rv8.h"

namespace hpmp::bench
{
namespace
{

void
runRv8()
{
    banner("Figure 11-a: RV8 execution time, seconds (RocketCore)");
    row({"app", "PL-PMP", "PL-PMPT", "PL-HPMP", "PMPT ovh",
         "HPMP ovh"});

    SchemeEnvs envs(CoreKind::Rocket);
    for (const Rv8App &app : rv8Apps()) {
        const double t_pmp = runRv8App(envs.pmp, app);
        const double t_pmpt = runRv8App(envs.pmpt, app);
        const double t_hpmp = runRv8App(envs.hpmp, app);
        row({app.name, fmt("%.2f", t_pmp), fmt("%.2f", t_pmpt),
             fmt("%.2f", t_hpmp), pct(t_pmpt / t_pmp - 1.0),
             pct(t_hpmp / t_pmp - 1.0)});
    }
    std::printf("  Paper: PMPT 0.0%%-1.7%% over PMP on Rocket; HPMP "
                "0.0%%-0.5%%\n");
}

void
runGap(CoreKind core)
{
    const MachineParams params = machineParams(core);
    banner("Figure 11-" +
           std::string(core == CoreKind::Rocket ? "b" : "c") +
           ": GAP latency normalized to Penglai-PMP (%) (" +
           params.name + ")");
    row({"kernel", "PL-PMP", "PL-PMPT", "PL-HPMP"});

    SchemeEnvs envs(core);
    GapSuite s_pmp(envs.pmp), s_pmpt(envs.pmpt), s_hpmp(envs.hpmp);

    for (const std::string &kernel : gapKernels()) {
        const double t_pmp = s_pmp.run(kernel);
        const double t_pmpt = s_pmpt.run(kernel);
        const double t_hpmp = s_hpmp.run(kernel);
        row({kernel, "100.0", fmt("%.1f", 100.0 * t_pmpt / t_pmp),
             fmt("%.1f", 100.0 * t_hpmp / t_pmp)});
    }
    std::printf("  Paper: PMPT 1.2%%-6.7%% (Rocket) / 1.8%%-9.6%% "
                "(BOOM) over PMP; HPMP 0.02%%-1.4%% / 0.6%%-2.4%%\n");
}

} // namespace

void
fig11_suites(Report &)
{
    runRv8();
    runGap(CoreKind::Rocket);
    runGap(CoreKind::Boom);
}

} // namespace hpmp::bench
