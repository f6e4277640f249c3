/**
 * @file
 * Ablation studies for HPMP's design choices (beyond the paper's own
 * figures; DESIGN.md "extension" items):
 *
 *  1. PMP Table depth: 2-level vs 3-level — the reserved-Mode
 *     extension trades coverage (16 GiB -> 8 TiB) for one extra
 *     reference per check.
 *  2. PMPTW issue cost sensitivity: how the headline mitigation
 *     changes as the per-pmpte walker cost varies.
 *  3. Hot-data hints (§9): the Redis store's node heap pinned into a
 *     segment on top of the PT-pool protection.
 */

#include "bench/common.h"
#include "workloads/redis.h"

namespace hpmp::bench
{
namespace
{

void
tableDepth()
{
    banner("Ablation 1: PMP Table depth (cold load, Rocket, Sv39)");
    row({"levels", "coverage", "refs", "cycles"});
    for (const unsigned levels : {2u, 3u}) {
        MicroEnv env(rocketParams(), IsolationScheme::PmpTable,
                     PagingMode::Sv39, levels);
        env.pt().map(0x40000000, MicroEnv::kDataBase, Perm::rw(), true);
        Machine &machine = env.machine();
        machine.coldReset();
        const auto out = machine.access(0x40000000, AccessType::Load);
        row({std::to_string(levels),
             levels == 2 ? "16 GiB" : "8 TiB",
             std::to_string(out.totalRefs()),
             std::to_string(out.cycles)});
    }
    std::printf("  Deeper tables scale coverage at +1 reference per "
                "check; HPMP's PT-page exemption matters more.\n");
}

void
pmptwStepSensitivity()
{
    banner("Ablation 2: PMPTW issue-cost sensitivity (TC2-style "
           "re-walk, Rocket)");
    row({"step-cycles", "PMPT", "HPMP", "PMP", "mitigated"});
    for (const unsigned step : {0u, 2u, 4u, 6u, 10u}) {
        uint64_t cycles[3];
        const IsolationScheme schemes[3] = {IsolationScheme::PmpTable,
                                            IsolationScheme::Hpmp,
                                            IsolationScheme::Pmp};
        for (int i = 0; i < 3; ++i) {
            MachineParams params = rocketParams();
            params.pmptwStepCycles = step;
            MicroEnv env(params, schemes[i]);
            const Addr va = env.mapPages(200) + pageAddr(100) + 0x88;
            Machine &m = env.machine();
            m.coldReset();
            (void)m.access(va, AccessType::Load);
            m.sfenceVma();
            m.hpmp().flushCache();
            cycles[i] = m.access(va, AccessType::Load).cycles;
        }
        const double extra_pmpt = double(cycles[0]) - double(cycles[2]);
        const double extra_hpmp = double(cycles[1]) - double(cycles[2]);
        const double mitigated =
            extra_pmpt > 0 ? 1.0 - extra_hpmp / extra_pmpt : 0.0;
        row({std::to_string(step), std::to_string(cycles[0]),
             std::to_string(cycles[1]), std::to_string(cycles[2]),
             pct(mitigated)});
    }
    std::printf("  HPMP's relative benefit is robust to the walker's "
                "issue cost (it removes references, not just "
                "cycles).\n");
}

void
hotDataHints()
{
    banner("Ablation 3: §9 hot-data hints on Redis (Rocket, RPS)");
    row({"command", "HPMP", "HPMP+hints", "gain"});

    for (const std::string &command :
         {std::string("GET"), std::string("LRANGE_100")}) {
        double rps[2];
        for (int with_hints = 0; with_hints < 2; ++with_hints) {
            TeeEnv env(envConfig(CoreKind::Rocket, IsolationScheme::Hpmp));
            RedisBench bench(env, 1024);
            if (with_hints) {
                // Pin the hottest data: carve 16 MiB around the store
                // into a fast GMS (the enclave's ioctl).
                const auto &gms_list =
                    env.monitor().gmsOf(env.monitor().domainCount() > 1
                                            ? 1
                                            : 0);
                // The data GMS is the largest registered region.
                Addr base = 0;
                uint64_t best = 0;
                for (const Gms &gms : gms_list) {
                    if (gms.size > best) {
                        best = gms.size;
                        base = gms.base;
                    }
                }
                const Addr hot = alignUp(base, 16_MiB);
                (void)env.monitor().hintHotRegion(1, hot, 16_MiB);
            }
            rps[with_hints] = bench.run(command, 1200);
        }
        row({command, fmt("%.0f", rps[0]), fmt("%.0f", rps[1]),
             pct(rps[1] / rps[0] - 1.0)});
    }
    std::printf("  Hints remove the residual data-page checks for "
                "pinned regions (bounded by free segment entries).\n");
}

} // namespace

void
ablation(Report &)
{
    tableDepth();
    pmptwStepSensitivity();
    hotDataHints();
}

} // namespace hpmp::bench
