/**
 * @file
 * Fleet-scale serving bench: domain-switch throughput and monitor-call
 * tail latency at {100, 1k, 10k} tenant domains under Zipf traffic
 * with churn, attestation, and coalesced shootdown windows.
 *
 * The headline claim is O(1) scaling: the sharded domain registry and
 * the diff-based layout application keep the p99 switch cost at 10k
 * domains within a small constant of the 100-domain figure, while
 * coalescing amortizes one IPI round over a whole batch of switches.
 *
 * Its --json member "fleet" holds one record per fleet size; with
 * --stats-series each size's windowed telemetry goes to the
 * "fleet_series" member of that file.
 */

#include <memory>
#include <string>

#include "base/stats.h"
#include "bench/common.h"
#include "workloads/fleet.h"

namespace hpmp::bench
{
namespace
{

/** One fleet size's --json record. */
Json
jsonRecord(unsigned domains, const FleetResult &r)
{
    return Json::object()
        .add("domains", std::to_string(domains))
        .add("switches", std::to_string(r.switches))
        .add("switches_per_sec", fmt("%.1f", r.switchesPerSec))
        .add("p50_switch_cycles", std::to_string(r.p50SwitchCycles))
        .add("p99_switch_cycles", std::to_string(r.p99SwitchCycles))
        .add("p999_switch_cycles", std::to_string(r.p999SwitchCycles))
        .add("churns", std::to_string(r.churns))
        .add("attests", std::to_string(r.attests))
        .add("stale_probes", std::to_string(r.staleProbes))
        .add("coalesced_windows", std::to_string(r.coalescedWindows))
        .add("commits_per_window", fmt("%.2f", r.commitsPerWindow));
}

} // namespace

void
fleet(Report &report)
{
    banner("Fleet serving: Zipf switch traffic with churn + coalescing");
    row({"domains", "switch/s", "p50 cyc", "p99 cyc", "p99.9 cyc",
         "churns", "windows", "c/window"});

    Json records = Json::array();
    Json series = Json::array();
    for (const unsigned domains : {100u, 1000u, 10000u}) {
        FleetConfig cfg;
        cfg.domains = domains;
        cfg.requests = 4000;
        cfg.harts = 4;
        FleetWorkload workload(cfg);
        // Windowed telemetry of the serving run (per fleet size).
        StatRegistry seriesRegistry;
        std::unique_ptr<StatSampler> sampler;
        if (report.sampleSeries) {
            workload.monitor().registerStats(seriesRegistry);
            workload.smp().registerStats(seriesRegistry);
            sampler = std::make_unique<StatSampler>(seriesRegistry,
                                                    report.seriesInterval);
            workload.setSampler(sampler.get());
        }
        const FleetResult res = workload.run();
        if (sampler)
            series.add("", Json::object()
                               .add("domains", std::to_string(domains))
                               .add("series", sampler->dumpJson()));
        records.add("", jsonRecord(domains, res));
        row({std::to_string(domains), fmt("%.0f", res.switchesPerSec),
             std::to_string(res.p50SwitchCycles),
             std::to_string(res.p99SwitchCycles),
             std::to_string(res.p999SwitchCycles),
             std::to_string(res.churns),
             std::to_string(res.coalescedWindows),
             fmt("%.2f", res.commitsPerWindow)});
    }
    report.json.add("fleet", std::move(records));
    report.series.add("fleet_series", std::move(series));
}

} // namespace hpmp::bench
