/**
 * @file
 * Table 3: LMBench OS-operation latencies under Penglai-PMP,
 * Penglai-PMPT and Penglai-HPMP, with the PMPT/HPMP ratio column.
 * BOOM (the paper's table) plus the Rocket summary quoted in §8.2.
 *
 * Its --json member holds every microseconds-per-op cell and both
 * averages as table3.<core>.<syscall>.<scheme>_us and
 * table3.<core>.avg.*_pct. The values are deterministic; the
 * committed copy (bench/BASELINE_table3.json) is gated by perfcheck.
 */

#include "bench/common.h"
#include "workloads/lmbench.h"

namespace hpmp::bench
{
namespace
{

/** One JSON cell {"pmp_us": .., "pmpt_us": .., "hpmp_us": ..}. */
Json
jsonCells(const double us[3])
{
    return Json::object()
        .add("pmp_us", fmt("%.9g", us[0]))
        .add("pmpt_us", fmt("%.9g", us[1]))
        .add("hpmp_us", fmt("%.9g", us[2]));
}

/** Print one core's table and return its JSON object table3.<core>. */
Json
runCore(CoreKind core, unsigned iters)
{
    const MachineParams params = machineParams(core);
    banner("Table 3: OS-operation latency, microseconds (" +
           params.name + ")");
    row({"syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP"});

    // One environment + suite per scheme, reused across syscalls.
    SchemeEnvs envs(core);
    LmbenchSuite suites[3] = {LmbenchSuite(envs.pmp),
                              LmbenchSuite(envs.pmpt),
                              LmbenchSuite(envs.hpmp)};

    Json json = Json::object();
    double ratio_sum = 0.0;
    double pmpt_over_pmp_sum = 0.0;
    unsigned n = 0;
    for (const std::string &syscall : lmbenchSyscalls()) {
        double us[3];
        for (int i = 0; i < 3; ++i)
            us[i] = suites[i].run(syscall, iters);
        const double ratio = us[1] / us[2];
        ratio_sum += ratio;
        pmpt_over_pmp_sum += us[1] / us[0];
        ++n;
        row({syscall, fmt("%.2f", us[0]), fmt("%.2f", us[1]),
             fmt("%.2f", us[2]), pct(ratio - 1.0)});
        json.add(syscall, jsonCells(us));
    }
    const double avg_ratio_pct = (ratio_sum / n - 1.0) * 100.0;
    const double avg_pmpt_pmp_pct = (pmpt_over_pmp_sum / n - 1.0) * 100.0;
    std::printf("  Avg PMPT/HPMP overhead: %.2f%% (paper BOOM: 28.43%%)"
                "; avg PMPT/PMP: %.2f%% (paper BOOM: 39.03%%, Rocket: "
                "26.46%%)\n",
                avg_ratio_pct, avg_pmpt_pmp_pct);
    json.add("avg", Json::object()
                        .add("pmpt_over_hpmp_pct",
                             fmt("%.9g", avg_ratio_pct))
                        .add("pmpt_over_pmp_pct",
                             fmt("%.9g", avg_pmpt_pmp_pct)));

    // Extension: the VM-centric LMBench operations the paper's table
    // omits — mmap/munmap, page-fault service and context switches
    // are where translation state churns hardest.
    std::printf("\n  extension: VM-centric operations (not in the "
                "paper's table)\n");
    row({"syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP"});
    for (const std::string &syscall : lmbenchExtendedSyscalls()) {
        double us[3];
        for (int i = 0; i < 3; ++i)
            us[i] = suites[i].run(syscall, iters);
        row({syscall, fmt("%.2f", us[0]), fmt("%.2f", us[1]),
             fmt("%.2f", us[2]), pct(us[1] / us[2] - 1.0)});
        json.add(syscall, jsonCells(us));
    }

    return json;
}

} // namespace

void
table3_lmbench(Report &report)
{
    Json boom = runCore(CoreKind::Boom, 120);
    Json rocket = runCore(CoreKind::Rocket, 120);
    report.json.add("table3", Json::object()
                                  .add("boom", std::move(boom))
                                  .add("rocket", std::move(rocket)));
}

} // namespace hpmp::bench
