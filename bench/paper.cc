/**
 * @file
 * bench_paper: the paper-figure driver. Each table/figure of the
 * paper (plus the fleet bench and the ablations) is one registered
 * function in bench/<figure>.cc, run by name:
 *
 *     bench_paper [FIGURE...] [--json=FILE] [--stats-series=FILE]
 *                 [--stats-interval=CYCLES]
 *
 * With no FIGURE it runs every figure in registry order. A figure's
 * stdout does not depend on what ran before it, so a full run prints
 * the concatenation of the single-figure runs.
 *
 * --json=FILE writes one document with a top-level member per figure
 * that emits JSON: fig02_refcounts and fig08_virt_refcounts (one stats
 * registry capture per cell), table3 and fleet (CI-gated against
 * bench/BASELINE_{table3,fleet}.json). --stats-series=FILE writes
 * fleet's windowed stats, one window every --stats-interval simulated
 * cycles (default 50000).
 *
 * Exit 2 on an unknown flag or figure or a missing or malformed value,
 * 1 when an output file cannot be written.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/parse.h"
#include "bench/common.h"

namespace hpmp::bench
{

void fig02_refcounts(Report &);
void fig03_preview(Report &);
void fig08_virt_refcounts(Report &);
void fig10_latency(Report &);
void table3_lmbench(Report &);
void fig11_suites(Report &);
void fig12_functionbench(Report &);
void fig12_imagechain(Report &);
void fig12_redis(Report &);
void fig13_virt(Report &);
void fig14_tee_ops(Report &);
void fig15_fragmentation(Report &);
void fig16_pmptw_cache(Report &);
void fig17_pwc(Report &);
void table4_hwcost(Report &);
void fleet(Report &);
void ablation(Report &);

namespace
{

struct Figure
{
    const char *name;
    void (*run)(Report &);
};

const Figure kFigures[] = {
    {"fig02_refcounts", fig02_refcounts},
    {"fig03_preview", fig03_preview},
    {"fig08_virt_refcounts", fig08_virt_refcounts},
    {"fig10_latency", fig10_latency},
    {"table3_lmbench", table3_lmbench},
    {"fig11_suites", fig11_suites},
    {"fig12_functionbench", fig12_functionbench},
    {"fig12_imagechain", fig12_imagechain},
    {"fig12_redis", fig12_redis},
    {"fig13_virt", fig13_virt},
    {"fig14_tee_ops", fig14_tee_ops},
    {"fig15_fragmentation", fig15_fragmentation},
    {"fig16_pmptw_cache", fig16_pmptw_cache},
    {"fig17_pwc", fig17_pwc},
    {"table4_hwcost", table4_hwcost},
    {"fleet", fleet},
    {"ablation", ablation},
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "bench_paper: %s\n"
                 "usage: bench_paper [FIGURE...] [--json=FILE] "
                 "[--stats-series=FILE] [--stats-interval=CYCLES]\n"
                 "figures:",
                 error.c_str());
    for (const Figure &figure : kFigures)
        std::fprintf(stderr, " %s", figure.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Open an output file up front, so a bad path fails before the run. */
std::FILE *
openOutput(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "bench_paper: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    return f;
}

int
writeJson(std::FILE *f, const Json &doc, const std::string &path)
{
    const std::string text = doc.str() + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                        text.size() &&
                    std::fclose(f) == 0;
    std::fprintf(stderr, ok ? "json written to %s\n"
                            : "bench_paper: cannot write %s\n",
                 path.c_str());
    return ok ? 0 : 1;
}

} // namespace
} // namespace hpmp::bench

int
main(int argc, char **argv)
{
    using namespace hpmp::bench;

    std::vector<const Figure *> figures;
    std::string json_path, series_path;
    Report report;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) {
            const std::string v = arg.substr(std::string(flag).size());
            if (v.empty())
                usage(std::string(flag) + " needs a value");
            return v;
        };
        if (arg.rfind("--json=", 0) == 0) {
            json_path = value("--json=");
        } else if (arg.rfind("--stats-series=", 0) == 0) {
            series_path = value("--stats-series=");
        } else if (arg.rfind("--stats-interval=", 0) == 0) {
            if (!hpmp::parseUnsigned(value("--stats-interval="),
                                     report.seriesInterval))
                usage("not a number: " + arg);
        } else if (arg.rfind("-", 0) == 0) {
            usage("unknown flag " + arg);
        } else {
            const Figure *match = nullptr;
            for (const Figure &figure : kFigures)
                if (arg == figure.name)
                    match = &figure;
            if (!match)
                usage("unknown figure " + arg);
            figures.push_back(match);
        }
    }
    if (figures.empty())
        for (const Figure &figure : kFigures)
            figures.push_back(&figure);

    std::FILE *json = json_path.empty() ? nullptr : openOutput(json_path);
    std::FILE *series =
        series_path.empty() ? nullptr : openOutput(series_path);
    report.sampleSeries = series != nullptr;

    for (const Figure *figure : figures)
        figure->run(report);
    std::fflush(stdout);

    int rc = 0;
    if (json)
        rc |= writeJson(json, report.json, json_path);
    if (series)
        rc |= writeJson(series, report.series, series_path);
    return rc;
}
