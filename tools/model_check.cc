/**
 * @file
 * The campaign driver: one binary for both campaign engines, over one
 * configuration (verify/harness.h CampaignConfig).
 *
 * Without --seed/--seeds it model-checks: it enumerates every hart
 * interleaving, fault-injection branch and mid-window nested-call
 * probe of a small fixed scenario (2 harts, 2 domains, a short
 * monitor-call script by default), checking the isolation invariants,
 * the stale-grant oracle, rollback digests and shootdown-window
 * termination at every state. Deduped explicit states + a
 * sleep-set-style scheduling reduction keep the default configuration
 * in the low thousands of paths (DESIGN.md §14). With --seed/--seeds
 * it runs seeded chaos campaigns (verify/chaos_engine.h), one per seed
 * and scheme, and prints their counters.
 *
 *     model_check                         # exhaustive default config
 *     model_check --harts 2 --domains 2 --depth 64
 *     model_check --script migrate        # two-host handoff, faults
 *     model_check --script ras            # poison containment paths
 *     model_check --mutate-skip-fence 2   # seeded bug: must find it
 *     model_check --seeds 1,2 --ops 1300 --harts 1 --scheme all
 *     model_check --seeds 1,2 --ops 250 --harts 4 --virt  # chaos layer
 *     model_check --replay ce.txt         # re-run a counterexample
 *
 * A violation — a model-check path or a failing chaos campaign — is
 * minimized and written to --ce-out (default model_check_ce.txt), then
 * replayed with a chrome://tracing span dump of the violating path
 * written to --trace-out. --replay re-runs any counterexample file
 * under the config of its own header; config flags are refused there.
 *
 * Exit status: 0 = clean (and, for a model check, exhaustive); 1 = a
 * violation was found (its minimized counterexample written and
 * replayed); 2 = usage error; 3 = model check truncated (depth/path
 * budget hit) without finding a violation — clean but NOT a proof over
 * the configured bounds. In --replay mode: 0 = the trace reproduced
 * its recorded violation, 1 = it did not.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "base/fault_inject.h"
#include "base/parse.h"
#include "verify/chaos_engine.h"
#include "verify/enumerator.h"

namespace
{

using namespace hpmp;
using namespace hpmp::verify;

struct Options
{
    CampaignConfig config;
    std::vector<uint64_t> seeds; //!< chaos campaigns; empty = model check
    std::vector<IsolationScheme> schemes{IsolationScheme::Hpmp};
    uint64_t maxViolations = 1;
    uint64_t maxPaths = 0;
    std::string ceOut = "model_check_ce.txt";
    std::string traceOut; //!< "" = derive from ceOut (.trace.json)
    std::string replayPath;
    std::string statsJson;   //!< chaos: per-campaign stats JSON file
    std::string statsSeries; //!< chaos: windowed time-series file
    /** Chaos: append every fault site this run exercised, one per
     *  line; CI unions these files across campaigns and asserts the
     *  union covers the full --list-fault-sites registry. */
    std::string siteCoverageOut;
    bool configFlag = false; //!< some flag set a config key
};

/**
 * Flags that set one config key (CampaignConfig::applyConfigLine). A
 * flag whose key already holds '=' takes no value.
 */
constexpr std::pair<const char *, const char *> kConfigFlags[] = {
    {"--harts", "harts"}, {"--domains", "domains"}, {"--pages", "pages"},
    {"--script", "script"}, {"--depth", "depth"},
    {"--max-faults", "max_faults"}, {"--max-injects", "max_injects"},
    {"--sites", "sites"}, {"--mutate-skip-fence", "mutate_skip_fence"},
    {"--ops", "ops"}, {"--fault-prob", "fault_prob"},
    {"--stats-interval", "stats_interval"},
    {"--no-fault-branch", "fault_branch=0"}, {"--os-layer", "layer=os"},
    {"--virt", "layer=virt"}, {"--fleet", "layer=fleet"},
    {"--ras", "layer=ras"}, {"--migrate", "layer=migrate"},
};

/** Flags that name a file. */
constexpr std::pair<const char *, std::string Options::*> kFileFlags[] = {
    {"--ce-out", &Options::ceOut}, {"--trace-out", &Options::traceOut},
    {"--replay", &Options::replayPath}, {"--stats-json", &Options::statsJson},
    {"--stats-series", &Options::statsSeries},
    {"--site-coverage-out", &Options::siteCoverageOut},
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--harts N] [--scheme pmp|pmpt|hpmp|all]\n"
        "    [--mutate-skip-fence N] [--ce-out FILE] [--trace-out FILE]\n"
        "    [--replay FILE] [--list-fault-sites]\n"
        "  model check: [--domains N] [--pages N] [--depth N]\n"
        "    [--script core|migrate|ras] [--max-faults N] [--max-injects N]\n"
        "    [--no-fault-branch] [--sites a,b,...] [--max-violations N]\n"
        "    [--max-paths N]\n"
        "  chaos: --seed N | --seeds N,M,... [--ops N] [--fault-prob P]\n"
        "    [--os-layer | --virt | --fleet | --ras | --migrate]\n"
        "    [--stats-json FILE] [--stats-series FILE]\n"
        "    [--stats-interval CYCLES] [--site-coverage-out FILE]\n",
        argv0);
}

/** A comma-separated list of whole unsigned numbers. */
bool
parseSeedList(const std::string &arg, std::vector<uint64_t> &out)
{
    std::istringstream ss(arg);
    std::string item;
    uint64_t seed = 0;
    out.clear();
    while (std::getline(ss, item, ',')) {
        if (!parseUnsigned(item, seed))
            return false;
        out.push_back(seed);
    }
    return !out.empty() && arg.back() != ',';
}

/** Parse the command line into `opt`; false (with `err`) on misuse. */
bool
parseArgs(int argc, char **argv, Options &opt, std::string &err)
{
    for (int i = 1; i < argc && err.empty(); ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 < argc)
                return argv[++i];
            err = arg + " needs a value";
            return "";
        };
        auto is = [&](const auto &f) { return arg == f.first; };
        const auto cfg = std::find_if(std::begin(kConfigFlags),
                                      std::end(kConfigFlags), is);
        const auto file = std::find_if(std::begin(kFileFlags),
                                       std::end(kFileFlags), is);
        const ChaosLayer layer = opt.config.layer;
        std::string text;
        uint64_t *number = arg == "--max-violations" ? &opt.maxViolations
                           : arg == "--max-paths"    ? &opt.maxPaths
                                                     : nullptr;
        opt.configFlag |= cfg != std::end(kConfigFlags) ||
                          arg == "--scheme" || arg == "--seed" ||
                          arg == "--seeds";
        if (cfg != std::end(kConfigFlags)) {
            const std::string key = cfg->second;
            text = key.find('=') != std::string::npos ? key
                                                       : key + "=" + value();
            if (err.empty() && opt.config.applyConfigLine(text, err) &&
                layer != ChaosLayer::None && layer != opt.config.layer) {
                err = "at most one layer flag (--os-layer, --virt, "
                      "--fleet, --ras, --migrate) per campaign";
            }
        } else if (file != std::end(kFileFlags)) {
            opt.*(file->second) = value();
        } else if (number) {
            text = value();
            if (err.empty() && !parseUnsigned(text, *number))
                err = "bad number '" + text + "' for " + arg;
        } else if (arg == "--scheme") {
            // "all" runs pmp, pmpt and hpmp, in that order.
            text = value();
            if (text == "all") {
                opt.schemes = {IsolationScheme::Pmp,
                               IsolationScheme::PmpTable,
                               IsolationScheme::Hpmp};
            } else if (err.empty() &&
                       opt.config.applyConfigLine("scheme=" + text, err)) {
                opt.schemes = {opt.config.scheme};
            }
        } else if (arg == "--seed" || arg == "--seeds") {
            text = value();
            if (!parseSeedList(text, opt.seeds) ||
                (arg == "--seed" && opt.seeds.size() != 1)) {
                err = "bad seed list '" + text + "' for " + arg;
            }
            opt.config.script = "chaos";
        } else if (arg == "--list-fault-sites") {
            // The curated FAULT_POINT registry, one site per line — CI
            // diffs this against the union of --site-coverage-out
            // files to prove every site is exercised by a campaign.
            for (const std::string &site : FaultInjector::knownSites())
                std::printf("%s\n", site.c_str());
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            err = "unknown option '" + arg + "'";
        }
    }
    if (opt.traceOut.empty()) {
        const auto dot = opt.ceOut.rfind('.');
        opt.traceOut = opt.ceOut.substr(0, dot) + ".trace.json";
    }
    if (!err.empty())
        return false;
    if (!opt.replayPath.empty() && opt.configFlag)
        err = "--replay takes its config from the trace; drop config flags";
    else if (opt.config.script == "chaos" && opt.seeds.empty())
        opt.seeds = {opt.config.seed};
    else if (opt.config.script != "chaos" && opt.schemes.size() > 1)
        err = "--scheme all needs chaos campaigns (--seed/--seeds)";
    return err.empty() &&
           (!opt.replayPath.empty() || opt.config.validate(err));
}

/** Write `text` to `path`; false, with a message, when that fails. */
bool
writeFile(const std::string &path, const std::string &text,
          std::ios::openmode mode = std::ios::out)
{
    if (std::ofstream(path, mode) << text)
        return true;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
}

/**
 * Replay `ce` (read from `path`) with the span window dumped as JSON
 * and print the verdict: the same violation kind at the same canonical
 * state digest, or what differed. @return whether it reproduced.
 */
bool
replayAndReport(ModelChecker &checker, const DecisionTrace &ce,
                const std::string &path, const Options &opt)
{
    std::printf("violation        %s: %s\n", ce.violation.kind.c_str(),
                ce.violation.description.c_str());
    std::printf("counterexample   %s (%zu decisions)\n", path.c_str(),
                ce.decisions.size());
    const ReplayReport rep = checker.replayWithChromeDump(ce, opt.traceOut);
    std::printf("replay           %s%s\n",
                rep.reproduced ? "reproduced" : "NOT reproduced",
                rep.bitExact ? ", bit-exact" : "");
    if (!rep.detail.empty())
        std::printf("replay_detail    %s\n", rep.detail.c_str());
    std::printf("trace_json       %s\n", opt.traceOut.c_str());
    return rep.reproduced;
}

/** Write a minimized counterexample and prove it back. @return 1. */
int
reportViolation(ModelChecker &checker, const DecisionTrace &ce,
                const Options &opt)
{
    writeFile(opt.ceOut, serializeTrace(ce));
    replayAndReport(checker, ce, opt.ceOut, opt);
    return 1;
}

/** The config a counterexample's header describes. */
bool
configOf(const DecisionTrace &trace, CampaignConfig &cfg, std::string &err)
{
    for (const std::string &line : trace.configLines) {
        if (!cfg.applyConfigLine(line, err))
            return false;
    }
    return cfg.validate(err);
}

int
replayMode(const Options &opt)
{
    std::ifstream in(opt.replayPath);
    std::ostringstream text;
    text << in.rdbuf();
    DecisionTrace trace;
    CampaignConfig cfg;
    std::string err = in ? "" : "cannot read " + opt.replayPath;
    if (!err.empty() || !parseTrace(text.str(), trace, err) ||
        !configOf(trace, cfg, err)) {
        std::fprintf(stderr, "bad trace: %s\n", err.c_str());
        return 2;
    }
    ModelChecker checker(cfg);
    return replayAndReport(checker, trace, opt.replayPath, opt) ? 0 : 1;
}

int
checkMode(const Options &opt)
{
    ModelChecker checker(opt.config);
    std::printf("# model_check");
    for (const std::string &line : opt.config.configLines())
        std::printf(" %s", line.c_str());
    std::printf("\n");
    const CheckResult result = checker.run(
        unsigned(std::min<uint64_t>(opt.maxViolations, UINT32_MAX)),
        opt.maxPaths);
    const CheckStats &s = result.stats;
    const std::pair<const char *, uint64_t> rows[] = {
        {"paths", s.paths}, {"states", s.states},
        {"transitions", s.transitions}, {"violations", s.violations},
        {"truncated_paths", s.truncatedPaths}, {"dedup_stops", s.dedupStops},
        {"sleep_merged", s.sleepMergedAlts},
        {"minimize_runs", s.minimizeRuns}};
    for (const auto &[name, value] : rows)
        std::printf("%-17s%llu\n", name, (unsigned long long)value);
    std::printf("exhaustive       %s\n", result.exhaustive ? "yes" : "no");
    if (result.counterexamples.empty())
        return result.exhaustive ? 0 : 3;
    return reportViolation(checker, result.counterexamples.front(), opt);
}

/** One indented "name=value ..." line of campaign counters. */
void
printCounters(std::initializer_list<std::pair<const char *, uint64_t>> rows)
{
    std::printf("     ");
    for (const auto &[name, value] : rows)
        std::printf(" %s=%llu", name, (unsigned long long)value);
    std::printf("\n");
}

void
printCampaign(const ChaosStats &s, IsolationScheme scheme, uint64_t seed,
              ChaosLayer layer)
{
    std::printf("chaos scheme=%-4s seed=%-3lu ops=%u ok=%u failed=%u "
                "injected=%u degraded=%u rollback-checks=%u %s\n",
                toString(scheme), (unsigned long)seed, s.ops, s.okOps,
                s.failedOps, s.injectedFaults, s.degradedOps,
                s.rollbackChecks, s.failed ? "FAIL" : "PASS");
    printCounters({{"harts", s.harts}, {"shootdowns", s.ipiShootdowns},
                   {"ipi-lost", s.ipiLost}, {"lock-contended", s.lockContended},
                   {"stale-probes", s.staleProbes},
                   {"pre-ack-stale", s.preAckStaleHits},
                   {"convergence-checks", s.convergenceChecks},
                   {"os-ops", s.osOps}, {"dma-ops", s.dmaOps}});
    if (layer == ChaosLayer::Fleet)
        printCounters({{"fleet-ops", s.fleetOps}, {"epochs", s.fleetEpochs},
                       {"churns", s.fleetChurns},
                       {"stale-probes", s.fleetStaleProbes},
                       {"coalesced-windows", s.coalescedWindows},
                       {"post-ack-violations", s.postAckViolations}});
    if (layer == ChaosLayer::Virt)
        printCounters({{"virt-ops", s.virtOps},
                       {"hfence-shootdowns", s.hfenceShootdowns},
                       {"virt-stale-probes", s.virtStaleProbes},
                       {"virt-pre-ack-stale", s.virtPreAckStaleHits},
                       {"stale-exec-grants", s.staleExecGrants},
                       {"stale-rw-grants", s.staleRwGrants}});
    if (layer == ChaosLayer::Ras)
        printCounters({{"ras-ops", s.rasOps}, {"poisons", s.rasPoisons},
                       {"machine-checks", s.rasMachineChecks},
                       {"reports", s.rasReports},
                       {"quarantines", s.rasQuarantines},
                       {"contained", s.rasContained}, {"heals", s.rasHeals},
                       {"fatal", s.rasFatalEvents},
                       {"scrub-scanned", s.scrubPagesScanned},
                       {"scrub-detections", s.scrubDetections},
                       {"blast-violations", s.rasBlastViolations}});
    if (layer == ChaosLayer::Migrate)
        printCounters({{"migrations", s.migrations},
                       {"commits", s.migrateCommits},
                       {"aborts", s.migrateAborts},
                       {"stranded", s.migrateStranded},
                       {"retries", s.migrateRetries}, {"bytes", s.migrateBytes},
                       {"dual-grant-checks", s.dualGrantChecks},
                       {"dual-grant-violations", s.dualGrantViolations}});
}

/**
 * Append the union of fault sites the process ever hit (the injector's
 * coverage set survives per-op clearPlans and per-campaign disable),
 * so a CI job accumulates one file across several runs.
 */
void
writeSiteCoverage(const Options &opt)
{
    std::string sites;
    for (const std::string &site : FaultInjector::instance().sitesEverSeen())
        sites += site + "\n";
    if (!opt.siteCoverageOut.empty())
        writeFile(opt.siteCoverageOut, sites, std::ios::app);
}

int
chaosMode(const Options &opt)
{
    unsigned total_ops = 0, total_faults = 0, total_degraded = 0;
    std::string campaigns_json, series_json;
    for (const IsolationScheme scheme : opt.schemes) {
        for (const uint64_t seed : opt.seeds) {
            CampaignConfig config = opt.config;
            config.scheme = scheme;
            config.seed = seed;
            std::string stats_json, series;
            if (!opt.statsJson.empty())
                config.statsJsonOut = &stats_json;
            if (!opt.statsSeries.empty())
                config.statsSeriesOut = &series;
            const ChaosStats stats = runChaos(config);
            // One {"scheme", "seed", <key>} entry per campaign.
            auto append = [&](std::string &json, const char *key,
                              const std::string &body) {
                json += std::string(json.empty() ? "" : ",\n") +
                        "    {\"scheme\": \"" + toString(scheme) +
                        "\", \"seed\": " + std::to_string(seed) + ", \"" +
                        key + "\": " + body + "}";
            };
            if (!opt.statsJson.empty())
                append(campaigns_json, "stats", stats_json);
            if (!opt.statsSeries.empty())
                append(series_json, "series", series);
            printCampaign(stats, scheme, seed, opt.config.layer);
            if (stats.failed) {
                std::printf("FAILING SEED: %lu\n", (unsigned long)seed);
                std::printf("  %s\n", stats.failure.c_str());
                writeSiteCoverage(opt);
                // The raw trace first: minimizing re-runs the campaign
                // per trial, which takes long for a late failure.
                writeFile(opt.ceOut, serializeTrace(stats.counterexample));
                // Replay through the counterexample's own header, as a
                // later --replay of the file does.
                CampaignConfig cfg;
                std::string err;
                configOf(stats.counterexample, cfg, err);
                ModelChecker checker(cfg);
                return reportViolation(
                    checker, checker.minimize(stats.counterexample), opt);
            }
            total_ops += stats.ops;
            total_faults += stats.injectedFaults;
            total_degraded += stats.degradedOps;
        }
    }
    std::printf("chaos: all campaigns clean (%u ops, %u injected faults, "
                "%u degraded-mode ops)\n",
                total_ops, total_faults, total_degraded);
    // {"campaigns": [...]} documents, each to its file when asked for.
    for (const auto &[path, json, what] :
         {std::tuple(opt.statsJson, campaigns_json, "stats"),
          std::tuple(opt.statsSeries, series_json, "stats series")}) {
        if (path.empty())
            continue;
        if (!writeFile(path, "{\n  \"campaigns\": [\n" + json + "\n  ]\n}\n"))
            return 1;
        std::printf("chaos: %s written to %s\n", what, path.c_str());
    }
    writeSiteCoverage(opt);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string err;
    if (!parseArgs(argc, argv, opt, err)) {
        if (!err.empty())
            std::fprintf(stderr, "%s\n", err.c_str());
        usage(argv[0]);
        return 2;
    }
    if (!opt.replayPath.empty())
        return replayMode(opt);
    return opt.config.script == "chaos" ? chaosMode(opt) : checkMode(opt);
}
