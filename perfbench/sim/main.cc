/**
 * @file
 * perfbench_sim: runs one benchmark workload and writes what it
 * measured as JSON for run.py.
 *
 *   perfbench_sim --workload gap|lmbench|virt|tenants --seed N
 *                 --seconds S --trace 0|1 --out FILE [--spans FILE]
 */

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/report.h"

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_sim --workload gap|lmbench|virt|tenants "
                 "--seed N --seconds S --trace 0|1 --out FILE "
                 "[--spans FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;

    std::string workload, out, spans;
    auto ctx = std::make_unique<RunContext>();
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            workload = value;
        else if (key == "--seed")
            ctx->seed = std::strtoull(value, nullptr, 0);
        else if (key == "--seconds")
            ctx->seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            ctx->trace = std::strcmp(value, "0") != 0;
        else if (key == "--out")
            out = value;
        else if (key == "--spans")
            spans = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || out.empty() || ctx->seconds <= 0.0)
        return usage();

    void (*run)(RunContext &) = nullptr;
    if (workload == "gap")
        run = runGap;
    else if (workload == "lmbench")
        run = runLmbench;
    else if (workload == "virt")
        run = runVirt;
    else if (workload == "tenants")
        run = runTenants;
    else
        return usage();

    runClock(); // start the run clock before any timing
    Report &rep = ctx->report;
    rep.workload = workload;
    rep.seed = ctx->seed;
    ctx->spans.setEnabled(ctx->trace);
    run(*ctx);
    ctx->spans.setEnabled(false);

    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    rep.peakRssKb = uint64_t(usage_now.ru_maxrss);
    rep.spans = ctx->spans.size();
    rep.spansDropped = ctx->spans.dropped();

    if (ctx->trace && !spans.empty() &&
        !ctx->spans.writeChromeTrace(spans)) {
        std::fprintf(stderr, "cannot write %s\n", spans.c_str());
        return 1;
    }
    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    const std::string json = rep.toJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !ok) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    return 0;
}
