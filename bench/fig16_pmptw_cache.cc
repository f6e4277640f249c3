/**
 * @file
 * Figure 16: caching for the permission table. The same
 * fragmentation microbenchmark as Fig. 15, comparing PMPT and HPMP
 * with and without the 8-entry PMPTW-Cache, against PMP.
 */

#include "bench/common.h"

namespace hpmp::bench
{

void
fig16_pmptw_cache(Report &)
{
    banner("Figure 16: PMPTW-Cache benefit — total latency of 64 page "
           "touches, cycles (Rocket, 8-entry cache)");
    row({"", "Contig-VA", "Fragmented-VA"});

    const struct
    {
        const char *name;
        IsolationScheme scheme;
        unsigned cache;
    } cases[] = {
        {"PMPT", IsolationScheme::PmpTable, 0},
        {"PMPT-Cache", IsolationScheme::PmpTable, 8},
        {"HPMP", IsolationScheme::Hpmp, 0},
        {"HPMP-Cache", IsolationScheme::Hpmp, 8},
        {"PMP", IsolationScheme::Pmp, 0},
    };
    for (const auto &c : cases) {
        MachineParams params = rocketParams();
        params.pmptwEntries = c.cache;
        row({c.name, std::to_string(touchPages(params, c.scheme, false, 1)),
             std::to_string(touchPages(params, c.scheme, true, 1))});
    }
    std::printf("  Paper: caching helps PMPT (especially fragmented "
                "VA); HPMP-Cache is best everywhere because HPMP "
                "removes PT-page checks that caching cannot\n");
}

} // namespace hpmp::bench
