/**
 * @file
 * Figure 12-c: end-to-end latency of the 4-function serverless image
 * processing chain, image sizes 32x32 to 256x256, normalized to
 * Penglai-PMP (absolute milliseconds annotated).
 */

#include "bench/common.h"
#include "workloads/serverless.h"

namespace hpmp::bench
{

void
fig12_imagechain(Report &)
{
    banner("Figure 12-c: serverless image-processing chain "
           "(normalized latency, RocketCore)");
    row({"size", "ms(PMP)", "PL-PMP", "PL-PMPT", "PL-HPMP"});

    SchemeEnvs envs(CoreKind::Rocket);
    for (const unsigned side : {32u, 64u, 128u, 256u}) {
        const double t_pmp = runImageChain(envs.pmp, side);
        const double t_pmpt = runImageChain(envs.pmpt, side);
        const double t_hpmp = runImageChain(envs.hpmp, side);
        row({std::to_string(side), fmt("%.1f", t_pmp * 1e3), "100.0",
             fmt("%.1f", 100.0 * t_pmpt / t_pmp),
             fmt("%.1f", 100.0 * t_hpmp / t_pmp)});
    }
    std::printf("  Paper: PMPT overhead 29.7%% (32px) shrinking to "
                "1.6%% (256px) as compute grows; HPMP 0.3%%-6.7%%\n");
}

} // namespace hpmp::bench
