/**
 * @file
 * Command-line driver for the monitor chaos fuzzer.
 *
 * Runs randomized domain-lifecycle campaigns (verify/chaos_engine.h)
 * with fault injection armed and the isolation invariants checked
 * after every operation. Deterministic per seed: any failure printed
 * here is replayed exactly with
 *
 *     chaos_fuzz --seed <N> --scheme <s> --ops <n>
 *
 * Exit status 0 when every campaign is clean, 1 on the first failure
 * (the failing seed and replay line are printed), 2 on bad usage.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "base/fault_inject.h"
#include "base/trace.h"
#include "verify/chaos_engine.h"

namespace
{

using hpmp::ChaosConfig;
using hpmp::ChaosLayer;
using hpmp::ChaosStats;
using hpmp::IsolationScheme;

struct Options
{
    std::vector<uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};
    unsigned ops = 1000;
    double faultProb = 0.25;
    unsigned harts = 1;
    ChaosLayer layer = ChaosLayer::None; //!< at most one layer flag
    size_t traceRing = 8192; //!< event-ring capacity; 0 disables capture
    std::vector<IsolationScheme> schemes{IsolationScheme::Hpmp};
    std::string statsJson; //!< per-campaign stats JSON file; "" = off
    std::string statsSeries; //!< windowed time-series file; "" = off
    uint64_t statsInterval = 10000; //!< simulated cycles per window
    /** Append every fault site this run exercised, one per line; CI
     *  unions these files across campaigns and asserts the union
     *  covers the full --list-fault-sites registry. */
    std::string siteCoverageOut;
};

/** One flag per campaign layer; the replay line prints it back. */
struct LayerFlag
{
    const char *flag;
    ChaosLayer layer;
    /** Why the layer needs sibling harts; nullptr = it does not. */
    const char *needsSiblings;
};

constexpr LayerFlag kLayerFlags[] = {
    {"--os-layer", ChaosLayer::Os,
     "the OS-layer campaign is part of the multi-hart fuzzer"},
    {"--virt", ChaosLayer::Virt,
     "the guest campaign is part of the multi-hart fuzzer"},
    {"--fleet", ChaosLayer::Fleet,
     "coalesced shootdown windows only exist with sibling harts to fence"},
    {"--ras", ChaosLayer::Ras, nullptr},
    {"--migrate", ChaosLayer::Migrate, nullptr},
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--seed N | --seeds N,M,...] [--ops N]\n"
        "          [--scheme pmp|pmpt|hpmp|all] [--fault-prob P]\n"
        "          [--harts N] [--os-layer] [--virt] [--fleet]\n"
        "          [--ras] [--migrate] [--trace-ring N]\n"
        "          [--stats-json FILE] [--stats-series FILE]\n"
        "          [--stats-interval CYCLES]\n"
        "          [--site-coverage-out FILE] [--list-fault-sites]\n",
        argv0);
}

/**
 * Record monitor/fault trace events into the bounded ring while a
 * campaign runs, silently — the ring is dumped as chrome://tracing
 * JSON only when a seed fails, so the last window of protocol steps
 * before the failure is preserved next to the replay line. A no-op
 * when tracing is compiled out (HPMP_TRACING=OFF) or --trace-ring 0.
 */
class RingCapture
{
  public:
    explicit RingCapture(size_t capacity) : active_(capacity > 0)
    {
        if (!active_ || !HPMP_TRACE_ENABLED)
            return;
        hpmp::Tracer &tracer = hpmp::Tracer::instance();
        tracer.setOutput(nullptr); // ring only, no stderr spew
        tracer.ring().setCapacity(capacity);
        tracer.enable(hpmp::TraceFlag::Monitor);
        tracer.enable(hpmp::TraceFlag::Fault);
    }

    ~RingCapture()
    {
        if (!active_ || !HPMP_TRACE_ENABLED)
            return;
        hpmp::Tracer &tracer = hpmp::Tracer::instance();
        tracer.disable(hpmp::TraceFlag::Monitor);
        tracer.disable(hpmp::TraceFlag::Fault);
        tracer.ring().clear();
        tracer.setOutput(stderr);
    }

    /** Dump the retained window for a failing seed. */
    void
    dumpFor(uint64_t seed)
    {
        if (!active_)
            return;
        if (!HPMP_TRACE_ENABLED) {
            std::printf("trace: unavailable (built with "
                        "HPMP_TRACING=OFF)\n");
            return;
        }
        const std::string path =
            "chaos_trace_seed" + std::to_string(seed) + ".json";
        hpmp::TraceRing &ring = hpmp::Tracer::instance().ring();
        if (ring.writeChromeJson(path)) {
            std::printf("trace: %zu events (%llu dropped) written to "
                        "%s (chrome://tracing)\n",
                        ring.size(),
                        (unsigned long long)ring.dropped(),
                        path.c_str());
        } else {
            std::printf("trace: could not write %s\n", path.c_str());
        }
    }

    /** Drop events from a clean campaign: the window stays relevant. */
    void
    nextCampaign()
    {
        if (active_ && HPMP_TRACE_ENABLED) {
            hpmp::Tracer::instance().ring().clear();
            // Fresh causal state too: a failing seed's dump must hold
            // only its own campaign's span trees.
            hpmp::Tracer::instance().spans().reset();
        }
    }

  private:
    bool active_;
};

/** One scheme by name, or "all" of them in pmp, pmpt, hpmp order. */
bool
parseSchemes(const std::string &arg, std::vector<IsolationScheme> &out)
{
    static constexpr std::pair<const char *, IsolationScheme> kSchemes[] = {
        {"pmp", IsolationScheme::Pmp},
        {"pmpt", IsolationScheme::PmpTable},
        {"hpmp", IsolationScheme::Hpmp},
    };
    out.clear();
    for (const auto &[name, scheme] : kSchemes) {
        if (arg == name || arg == "all")
            out.push_back(scheme);
    }
    return !out.empty();
}

std::vector<uint64_t>
parseSeedList(const std::string &arg)
{
    std::vector<uint64_t> seeds;
    size_t pos = 0;
    while (pos < arg.size()) {
        size_t used = 0;
        seeds.push_back(std::stoull(arg.substr(pos), &used));
        pos += used;
        if (pos < arg.size() && arg[pos] == ',')
            ++pos;
    }
    return seeds;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto layer_flag = std::find_if(
            std::begin(kLayerFlags), std::end(kLayerFlags),
            [&](const LayerFlag &flag) { return arg == flag.flag; });
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            opts.seeds = {std::strtoull(value(), nullptr, 0)};
        } else if (arg == "--seeds") {
            opts.seeds = parseSeedList(value());
        } else if (arg == "--ops") {
            opts.ops = unsigned(std::strtoul(value(), nullptr, 0));
        } else if (arg == "--fault-prob") {
            opts.faultProb = std::strtod(value(), nullptr);
        } else if (arg == "--harts") {
            opts.harts = unsigned(std::strtoul(value(), nullptr, 0));
        } else if (layer_flag != std::end(kLayerFlags)) {
            if (opts.layer != ChaosLayer::None &&
                opts.layer != layer_flag->layer) {
                std::fprintf(stderr,
                             "at most one layer flag (--os-layer, --virt, "
                             "--fleet, --ras, --migrate) per campaign\n");
                return 2;
            }
            opts.layer = layer_flag->layer;
        } else if (arg == "--site-coverage-out") {
            opts.siteCoverageOut = value();
        } else if (arg == "--list-fault-sites") {
            // The curated FAULT_POINT registry, one site per line —
            // CI diffs this against the union of --site-coverage-out
            // files to prove every site is exercised by a campaign.
            for (const std::string &site :
                 hpmp::FaultInjector::knownSites()) {
                std::printf("%s\n", site.c_str());
            }
            return 0;
        } else if (arg == "--trace-ring") {
            opts.traceRing = size_t(std::strtoul(value(), nullptr, 0));
        } else if (arg == "--stats-json") {
            opts.statsJson = value();
        } else if (arg == "--stats-series") {
            opts.statsSeries = value();
        } else if (arg == "--stats-interval") {
            opts.statsInterval = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--scheme") {
            if (!parseSchemes(value(), opts.schemes)) {
                usage(argv[0]);
                return 2;
            }
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (opts.seeds.empty() || opts.ops == 0 || opts.harts == 0) {
        usage(argv[0]);
        return 2;
    }
    for (const LayerFlag &flag : kLayerFlags) {
        if (opts.layer == flag.layer && flag.needsSiblings &&
            opts.harts < 2) {
            std::fprintf(stderr, "%s requires --harts >= 2 (%s)\n",
                         flag.flag, flag.needsSiblings);
            return 2;
        }
    }

    RingCapture capture(opts.traceRing);
    // Dump the union of fault sites the process ever hit (the
    // injector's coverage set survives per-op clearPlans and
    // per-campaign disable). Appended, so a CI job accumulates one
    // file across several chaos_fuzz invocations and asserts the
    // union covers the whole registry.
    auto write_site_coverage = [&opts]() {
        if (opts.siteCoverageOut.empty())
            return;
        std::FILE *f = std::fopen(opts.siteCoverageOut.c_str(), "a");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts.siteCoverageOut.c_str());
            return;
        }
        for (const std::string &site :
             hpmp::FaultInjector::instance().sitesEverSeen()) {
            std::fprintf(f, "%s\n", site.c_str());
        }
        std::fclose(f);
    };
    unsigned total_ops = 0;
    unsigned total_faults = 0;
    unsigned total_degraded = 0;
    std::string campaigns_json;
    std::string series_json;
    for (const IsolationScheme scheme : opts.schemes) {
        for (const uint64_t seed : opts.seeds) {
            ChaosConfig config;
            config.seed = seed;
            config.ops = opts.ops;
            config.scheme = scheme;
            config.faultProb = opts.faultProb;
            config.harts = opts.harts;
            config.layer = opts.layer;
            std::string campaign_stats;
            if (!opts.statsJson.empty())
                config.statsJsonOut = &campaign_stats;
            std::string campaign_series;
            if (!opts.statsSeries.empty()) {
                config.statsSeriesOut = &campaign_series;
                config.statsSeriesInterval = opts.statsInterval;
            }

            capture.nextCampaign();
            const ChaosStats stats = hpmp::runChaos(config);
            // One {"scheme", "seed", <key>} entry per campaign.
            auto append = [&](std::string &json, const char *key,
                              const std::string &body) {
                if (!json.empty())
                    json += ",\n";
                json += std::string("    {\"scheme\": \"") +
                        toString(scheme) + "\", \"seed\": " +
                        std::to_string(seed) + ", \"" + key + "\": " +
                        body + "}";
            };
            if (!opts.statsJson.empty())
                append(campaigns_json, "stats", campaign_stats);
            if (!opts.statsSeries.empty())
                append(series_json, "series", campaign_series);
            std::printf(
                "chaos scheme=%-4s seed=%-3lu ops=%u ok=%u failed=%u "
                "injected=%u degraded=%u rollback-checks=%u %s\n",
                toString(scheme), (unsigned long)seed, stats.ops,
                stats.okOps, stats.failedOps, stats.injectedFaults,
                stats.degradedOps, stats.rollbackChecks,
                stats.failed ? "FAIL" : "PASS");
            std::printf("      harts=%u shootdowns=%llu ipi-lost=%llu "
                        "lock-contended=%llu stale-probes=%llu "
                        "pre-ack-stale=%llu convergence-checks=%llu "
                        "os-ops=%llu dma-ops=%llu\n",
                        stats.harts,
                        (unsigned long long)stats.ipiShootdowns,
                        (unsigned long long)stats.ipiLost,
                        (unsigned long long)stats.lockContended,
                        (unsigned long long)stats.staleProbes,
                        (unsigned long long)stats.preAckStaleHits,
                        (unsigned long long)stats.convergenceChecks,
                        (unsigned long long)stats.osOps,
                        (unsigned long long)stats.dmaOps);
            if (opts.layer == ChaosLayer::Fleet) {
                std::printf(
                    "      fleet-ops=%llu epochs=%llu churns=%llu "
                    "stale-probes=%llu coalesced-windows=%llu "
                    "post-ack-violations=%llu\n",
                    (unsigned long long)stats.fleetOps,
                    (unsigned long long)stats.fleetEpochs,
                    (unsigned long long)stats.fleetChurns,
                    (unsigned long long)stats.fleetStaleProbes,
                    (unsigned long long)stats.coalescedWindows,
                    (unsigned long long)stats.postAckViolations);
            }
            if (opts.layer == ChaosLayer::Virt) {
                std::printf(
                    "      virt-ops=%llu hfence-shootdowns=%llu "
                    "virt-stale-probes=%llu virt-pre-ack-stale=%llu "
                    "stale-exec-grants=%llu stale-rw-grants=%llu\n",
                    (unsigned long long)stats.virtOps,
                    (unsigned long long)stats.hfenceShootdowns,
                    (unsigned long long)stats.virtStaleProbes,
                    (unsigned long long)stats.virtPreAckStaleHits,
                    (unsigned long long)stats.staleExecGrants,
                    (unsigned long long)stats.staleRwGrants);
            }
            if (opts.layer == ChaosLayer::Ras) {
                std::printf(
                    "      ras-ops=%llu poisons=%llu machine-checks=%llu "
                    "reports=%llu quarantines=%llu contained=%llu "
                    "heals=%llu fatal=%llu scrub-scanned=%llu "
                    "scrub-detections=%llu blast-violations=%llu\n",
                    (unsigned long long)stats.rasOps,
                    (unsigned long long)stats.rasPoisons,
                    (unsigned long long)stats.rasMachineChecks,
                    (unsigned long long)stats.rasReports,
                    (unsigned long long)stats.rasQuarantines,
                    (unsigned long long)stats.rasContained,
                    (unsigned long long)stats.rasHeals,
                    (unsigned long long)stats.rasFatalEvents,
                    (unsigned long long)stats.scrubPagesScanned,
                    (unsigned long long)stats.scrubDetections,
                    (unsigned long long)stats.rasBlastViolations);
            }
            if (opts.layer == ChaosLayer::Migrate) {
                std::printf(
                    "      migrations=%llu commits=%llu aborts=%llu "
                    "stranded=%llu retries=%llu bytes=%llu "
                    "dual-grant-checks=%llu dual-grant-violations=%llu\n",
                    (unsigned long long)stats.migrations,
                    (unsigned long long)stats.migrateCommits,
                    (unsigned long long)stats.migrateAborts,
                    (unsigned long long)stats.migrateStranded,
                    (unsigned long long)stats.migrateRetries,
                    (unsigned long long)stats.migrateBytes,
                    (unsigned long long)stats.dualGrantChecks,
                    (unsigned long long)stats.dualGrantViolations);
            }
            if (stats.failed) {
                std::printf("FAILING SEED: %lu\n", (unsigned long)seed);
                std::printf("  %s\n", stats.failure.c_str());
                // One exact, complete replay line: every flag that
                // shapes the campaign, whether or not it is at its
                // default, so the command reproduces this run verbatim.
                std::string replay = "chaos_fuzz";
                replay += " --seed " + std::to_string(seed);
                replay += " --scheme ";
                replay += scheme == IsolationScheme::Pmp ? "pmp"
                          : scheme == IsolationScheme::PmpTable ? "pmpt"
                                                                : "hpmp";
                replay += " --ops " + std::to_string(opts.ops);
                char prob[32];
                std::snprintf(prob, sizeof(prob), "%g", opts.faultProb);
                replay += std::string(" --fault-prob ") + prob;
                replay += " --harts " + std::to_string(opts.harts);
                for (const LayerFlag &flag : kLayerFlags) {
                    if (opts.layer == flag.layer)
                        replay += std::string(" ") + flag.flag;
                }
                replay += " --trace-ring " + std::to_string(opts.traceRing);
                std::printf("replay: %s\n", replay.c_str());
                capture.dumpFor(seed);
                write_site_coverage();
                return 1;
            }
            total_ops += stats.ops;
            total_faults += stats.injectedFaults;
            total_degraded += stats.degradedOps;
        }
    }
    std::printf("chaos: all campaigns clean (%u ops, %u injected faults, "
                "%u degraded-mode ops)\n",
                total_ops, total_faults, total_degraded);
    // Write {"campaigns": [...]} to `path` ("" = off); false on error.
    auto write_campaigns = [](const std::string &path,
                              const std::string &json, const char *what) {
        if (path.empty())
            return true;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"campaigns\": [\n%s\n  ]\n}\n",
                     json.c_str());
        std::fclose(f);
        std::printf("chaos: %s written to %s\n", what, path.c_str());
        return true;
    };
    if (!write_campaigns(opts.statsJson, campaigns_json, "stats") ||
        !write_campaigns(opts.statsSeries, series_json, "stats series")) {
        return 1;
    }
    write_site_coverage();
    return 0;
}
