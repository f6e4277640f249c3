/**
 * @file
 * Table 3: LMBench OS-operation latencies under Penglai-PMP,
 * Penglai-PMPT and Penglai-HPMP, with the PMPT/HPMP ratio column.
 * BOOM (the paper's table) plus the Rocket summary quoted in §8.2.
 *
 * --json=FILE also writes every microseconds-per-op cell and both
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

/** One JSON member "name": {"pmp_us": .., "pmpt_us": .., "hpmp_us": ..}. */
std::string
jsonCells(const std::string &name, const double us[3])
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"pmp_us\": %.9g, \"pmpt_us\": %.9g, "
                  "\"hpmp_us\": %.9g}",
                  name.c_str(), us[0], us[1], us[2]);
    return buf;
}

/**
 * Print one core's table and return its JSON object body (the
 * members of table3.<core>).
 */
std::string
runCore(CoreKind core, unsigned iters)
{
    const MachineParams params = machineParams(core);
    banner("Table 3: OS-operation latency, microseconds (" +
           params.name + ")");
    row({"syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP"});

    EnvConfig config;
    config.core = core;

    // One environment + suite per scheme, reused across syscalls.
    std::vector<std::unique_ptr<TeeEnv>> envs;
    std::vector<std::unique_ptr<LmbenchSuite>> suites;
    const IsolationScheme schemes[3] = {IsolationScheme::Pmp,
                                        IsolationScheme::PmpTable,
                                        IsolationScheme::Hpmp};
    for (const IsolationScheme scheme : schemes) {
        config.scheme = scheme;
        envs.push_back(std::make_unique<TeeEnv>(config));
        suites.push_back(std::make_unique<LmbenchSuite>(*envs.back()));
    }

    std::vector<std::string> json;
    double ratio_sum = 0.0;
    double pmpt_over_pmp_sum = 0.0;
    unsigned n = 0;
    for (const std::string &syscall : lmbenchSyscalls()) {
        double us[3];
        for (int i = 0; i < 3; ++i)
            us[i] = suites[i]->run(syscall, iters);
        const double ratio = us[1] / us[2];
        ratio_sum += ratio;
        pmpt_over_pmp_sum += us[1] / us[0];
        ++n;
        row({syscall, fmt("%.2f", us[0]), fmt("%.2f", us[1]),
             fmt("%.2f", us[2]), pct(ratio - 1.0)});
        json.push_back(jsonCells(syscall, us));
    }
    const double avg_ratio_pct = (ratio_sum / n - 1.0) * 100.0;
    const double avg_pmpt_pmp_pct = (pmpt_over_pmp_sum / n - 1.0) * 100.0;
    std::printf("  Avg PMPT/HPMP overhead: %.2f%% (paper BOOM: 28.43%%)"
                "; avg PMPT/PMP: %.2f%% (paper BOOM: 39.03%%, Rocket: "
                "26.46%%)\n",
                avg_ratio_pct, avg_pmpt_pmp_pct);
    char avg[160];
    std::snprintf(avg, sizeof(avg),
                  "\"avg\": {\"pmpt_over_hpmp_pct\": %.9g, "
                  "\"pmpt_over_pmp_pct\": %.9g}",
                  avg_ratio_pct, avg_pmpt_pmp_pct);
    json.push_back(avg);

    // Extension: the VM-centric LMBench operations the paper's table
    // omits — mmap/munmap, page-fault service and context switches
    // are where translation state churns hardest.
    std::printf("\n  extension: VM-centric operations (not in the "
                "paper's table)\n");
    row({"syscall", "PMP", "PMPT", "HPMP", "PMPT/HPMP"});
    for (const std::string &syscall : lmbenchExtendedSyscalls()) {
        double us[3];
        for (int i = 0; i < 3; ++i)
            us[i] = suites[i]->run(syscall, iters);
        row({syscall, fmt("%.2f", us[0]), fmt("%.2f", us[1]),
             fmt("%.2f", us[2]), pct(us[1] / us[2] - 1.0)});
        json.push_back(jsonCells(syscall, us));
    }

    std::string body;
    for (size_t i = 0; i < json.size(); ++i)
        body += (i ? ",\n      " : "      ") + json[i];
    return body;
}

} // namespace
} // namespace hpmp::bench

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(std::string("--json=").size());
    }

    const std::string boom =
        hpmp::bench::runCore(hpmp::CoreKind::Boom, 120);
    const std::string rocket =
        hpmp::bench::runCore(hpmp::CoreKind::Rocket, 120);

    if (!json_path.empty()) {
        const std::string out = "{\n  \"table3\": {\n    \"boom\": {\n" +
                                boom + "\n    },\n    \"rocket\": {\n" +
                                rocket + "\n    }\n  }\n}\n";
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::fwrite(out.data(), 1, out.size(), f);
        std::fclose(f);
        std::fprintf(stderr, "baseline written to %s\n",
                     json_path.c_str());
    }
    return 0;
}
