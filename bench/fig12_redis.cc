/**
 * @file
 * Figure 12-d/e: Redis requests-per-second under the redis-benchmark
 * command mix, normalized to Penglai-PMP, Rocket and BOOM (BOOM adds
 * the non-secure Host-PMP baseline).
 */

#include "bench/common.h"
#include "workloads/redis.h"

namespace hpmp::bench
{
namespace
{

unsigned
requestsFor(const std::string &command)
{
    // The LRANGE variants walk hundreds of nodes per request; fewer
    // requests keep the harness quick without changing the result.
    return command.rfind("LRANGE", 0) == 0 ? 600 : 2000;
}

void
runCore(CoreKind core)
{
    const MachineParams params = machineParams(core);
    const bool is_boom = core == CoreKind::Boom;
    banner("Figure 12-" + std::string(is_boom ? "e" : "d") +
           ": Redis RPS normalized to Penglai-PMP (%) (" + params.name +
           ")");
    row({"command", "RPS(PMP)", "PL-PMPT", "PL-HPMP"});

    SchemeEnvs envs(core);
    RedisBench pmp(envs.pmp), pmpt(envs.pmpt), hpmp(envs.hpmp);

    double pmpt_sum = 0.0, hpmp_sum = 0.0;
    unsigned n = 0;
    for (const std::string &command : redisCommands()) {
        const unsigned requests = requestsFor(command);
        const double rps_pmp = pmp.run(command, requests);
        const double rps_pmpt = pmpt.run(command, requests);
        const double rps_hpmp = hpmp.run(command, requests);
        pmpt_sum += rps_pmpt / rps_pmp;
        hpmp_sum += rps_hpmp / rps_pmp;
        ++n;
        row({command, fmt("%.0f", rps_pmp),
             fmt("%.1f", 100.0 * rps_pmpt / rps_pmp),
             fmt("%.1f", 100.0 * rps_hpmp / rps_pmp)});
    }
    std::printf("  Avg PMPT throughput loss %.1f%%, HPMP %.1f%% "
                "(paper: %s)\n",
                (1.0 - pmpt_sum / n) * 100.0,
                (1.0 - hpmp_sum / n) * 100.0,
                is_boom
                    ? "PMPT 10.8-31.8% loss, avg 16.0%; HPMP avg 4.5%"
                    : "PMPT 5.9-18.0% loss, avg 10.5%; HPMP avg 3.3%");
}

} // namespace

void
fig12_redis(Report &)
{
    runCore(CoreKind::Rocket);
    runCore(CoreKind::Boom);
}

} // namespace hpmp::bench
