/**
 * @file
 * Figure 15: memory fragmentation. Access the same number of virtual
 * pages under four conditions: {contiguous, fragmented} physical
 * placement x {contiguous, fragmented} virtual stride (the
 * fragmented-VA case strides 8 GiB + 4 KiB as in §8.8), comparing
 * PMP / PMP Table / HPMP end-to-end latency on Rocket.
 */

#include "bench/common.h"

namespace hpmp::bench
{
namespace
{

void
runPaCase(bool frag_pa)
{
    banner(std::string("Figure 15-") + (frag_pa ? "b" : "a") + ": " +
           (frag_pa ? "fragmented" : "contiguous") +
           " physical pages — total latency of 64 page touches, "
           "cycles (Rocket)");
    row({"", "Contig-VA", "Fragmented-VA"});
    // Fragmented PA: scatter pages 8 MiB apart so leaf pmptes and
    // cache lines never coalesce.
    const uint64_t pa_stride = frag_pa ? 2048 + 7 : 1;
    for (const IsolationScheme scheme :
         {IsolationScheme::Pmp, IsolationScheme::PmpTable,
          IsolationScheme::Hpmp}) {
        row({toString(scheme),
             std::to_string(touchPages(rocketParams(), scheme, false,
                                       pa_stride)),
             std::to_string(touchPages(rocketParams(), scheme, true,
                                       pa_stride))});
    }
}

} // namespace

void
fig15_fragmentation(Report &)
{
    runPaCase(false);
    runPaCase(true);
    std::printf("  Paper: fragmentation raises latency everywhere; "
                "HPMP still beats PMP Table in all four cases\n");
}

} // namespace hpmp::bench
