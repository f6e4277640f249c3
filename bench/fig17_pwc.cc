/**
 * @file
 * Figure 17: FunctionBench under 8-entry vs 32-entry page-walk
 * caches (Rocket), for PMP / PMP Table / HPMP — showing that a bigger
 * PWC does not remove the permission-table overhead that HPMP does.
 */

#include "bench/common.h"
#include "workloads/serverless.h"

namespace hpmp::bench
{

void
fig17_pwc(Report &)
{
    banner("Figure 17: FunctionBench latency normalized to PMP(8) "
           "(%), PWC 8 vs 32 entries (Rocket)");
    row({"function", "PMP(8)", "PMP(32)", "PMPT(8)", "PMPT(32)",
         "HPMP(8)", "HPMP(32)"});

    struct Config
    {
        IsolationScheme scheme;
        unsigned pwc;
    };
    const Config configs[6] = {
        {IsolationScheme::Pmp, 8},      {IsolationScheme::Pmp, 32},
        {IsolationScheme::PmpTable, 8}, {IsolationScheme::PmpTable, 32},
        {IsolationScheme::Hpmp, 8},     {IsolationScheme::Hpmp, 32},
    };

    std::vector<std::unique_ptr<TeeEnv>> envs;
    for (const Config &c : configs) {
        EnvConfig ec = envConfig(CoreKind::Rocket, c.scheme);
        ec.pwcEntries = c.pwc;
        envs.push_back(std::make_unique<TeeEnv>(ec));
    }

    for (const FunctionModel &fn : functionBenchApps()) {
        double t[6];
        for (int i = 0; i < 6; ++i)
            t[i] = invokeFunction(*envs[i], fn, 40000);
        std::vector<std::string> cells{fn.name};
        for (int i = 0; i < 6; ++i)
            cells.push_back(fmt("%.1f", 100.0 * t[i] / t[0]));
        row(cells);
    }
    std::printf("  Paper: a larger PWC helps marginally; PMPT keeps "
                "its permission-table overhead while HPMP removes the "
                "PT-page checks by design\n");
}

} // namespace hpmp::bench
