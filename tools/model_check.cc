/**
 * @file
 * Bounded-exhaustive model checker for monitor isolation.
 *
 * Systematically enumerates every hart interleaving, fault-injection
 * branch and mid-window nested-call probe of a small fixed scenario
 * (2 harts, 2 domains, a short monitor-call script by default),
 * checking the isolation invariants, the stale-grant oracle, rollback
 * digests and shootdown-window termination at every state. Deduped
 * explicit states + a sleep-set-style scheduling reduction keep the
 * default configuration in the low thousands of paths (DESIGN.md §14).
 *
 *     model_check                         # exhaustive default config
 *     model_check --harts 2 --domains 2 --depth 64
 *     model_check --script migrate        # two-host handoff, faults
 *     model_check --script ras            # poison containment paths
 *     model_check --mutate-skip-fence 2   # seeded bug: must find it
 *     model_check --replay ce.txt         # re-run a counterexample
 *
 * Violations are minimized and written to --ce-out (default
 * model_check_ce.txt) together with a chrome://tracing span dump of
 * the replayed violating path (--trace-out).
 *
 * Exit status: 0 = exhaustive and clean; 1 = violations found (the
 * minimized counterexample replayed); 2 = usage error; 3 = search
 * truncated (depth/path budget hit) without finding a violation —
 * clean but NOT a proof over the configured bounds. In --replay mode:
 * 0 = the trace reproduced its recorded violation, 1 = it did not.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "verify/enumerator.h"

namespace
{

using namespace hpmp;
using namespace hpmp::verify;

struct Options
{
    ModelConfig config;
    unsigned maxViolations = 1;
    uint64_t maxPaths = 0;
    std::string ceOut = "model_check_ce.txt";
    std::string traceOut; //!< "" = derive from ceOut (.json)
    std::string replayPath;
    bool quiet = false;
};

/** Flags that set one ModelConfig key (ModelConfig::applyConfigLine). */
constexpr std::pair<const char *, const char *> kConfigFlags[] = {
    {"--harts", "harts"},
    {"--domains", "domains"},
    {"--pages", "pages"},
    {"--scheme", "scheme"},
    {"--script", "script"},
    {"--depth", "depth"},
    {"--max-faults", "max_faults"},
    {"--max-injects", "max_injects"},
    {"--sites", "sites"},
    {"--mutate-skip-fence", "mutate_skip_fence"},
};

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--harts N] [--domains N] [--pages N]\n"
        "          [--scheme pmp|pmpt|hpmp] [--script core|migrate|ras]\n"
        "          [--depth N] [--max-faults N] [--max-injects N]\n"
        "          [--no-fault-branch] [--sites a,b,...]\n"
        "          [--mutate-skip-fence N] [--max-violations N]\n"
        "          [--max-paths N] [--ce-out FILE] [--trace-out FILE]\n"
        "          [--replay FILE] [--quiet]\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 < argc)
                return argv[++i];
            std::fprintf(stderr, "%s needs a value\n", argv[i]);
            usage(argv[0]);
            std::exit(2);
        };
        const auto flag = std::find_if(
            std::begin(kConfigFlags), std::end(kConfigFlags),
            [&](const auto &f) { return arg == f.first; });
        std::string err;
        if (flag != std::end(kConfigFlags)) {
            if (!opt.config.applyConfigLine(
                    std::string(flag->second) + "=" + value(), err)) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return false;
            }
        } else if (arg == "--no-fault-branch") {
            opt.config.faultBranch = false;
        } else if (arg == "--max-violations") {
            opt.maxViolations = unsigned(std::strtoul(value(), nullptr, 0));
        } else if (arg == "--max-paths") {
            opt.maxPaths = std::strtoull(value(), nullptr, 0);
        } else if (arg == "--ce-out") {
            opt.ceOut = value();
        } else if (arg == "--trace-out") {
            opt.traceOut = value();
        } else if (arg == "--replay") {
            opt.replayPath = value();
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            std::exit(2);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    if (opt.traceOut.empty()) {
        std::string base = opt.ceOut;
        const auto dot = base.rfind('.');
        if (dot != std::string::npos)
            base.resize(dot);
        opt.traceOut = base + ".trace.json";
    }
    return true;
}

void
printStats(const CheckStats &s)
{
    const std::pair<const char *, uint64_t> rows[] = {
        {"paths", s.paths},
        {"states", s.states},
        {"transitions", s.transitions},
        {"violations", s.violations},
        {"truncated_paths", s.truncatedPaths},
        {"dedup_stops", s.dedupStops},
        {"sleep_merged", s.sleepMergedAlts},
        {"minimize_runs", s.minimizeRuns},
    };
    for (const auto &[name, value] : rows)
        std::printf("%-17s%llu\n", name, (unsigned long long)value);
}

int
replayMode(const Options &opt)
{
    std::ifstream in(opt.replayPath);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n",
                     opt.replayPath.c_str());
        return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    DecisionTrace trace;
    std::string err;
    if (!parseTrace(ss.str(), trace, err)) {
        std::fprintf(stderr, "bad trace: %s\n", err.c_str());
        return 2;
    }
    // The trace's config header wins over defaults; explicit CLI
    // options were applied before and win over the header only if
    // the user repeats them after --replay (documented sharp edge).
    ModelConfig cfg = opt.config;
    bool applied = true;
    for (const std::string &line : trace.configLines)
        applied = applied && cfg.applyConfigLine(line, err);
    if (!applied || !cfg.validate(err)) {
        std::fprintf(stderr, "bad trace config: %s\n", err.c_str());
        return 2;
    }
    ModelChecker checker(cfg);
    const ReplayReport rep =
        checker.replayWithChromeDump(trace, opt.traceOut);
    std::printf("reproduced  %s\n", rep.reproduced ? "yes" : "no");
    std::printf("bit_exact   %s\n", rep.bitExact ? "yes" : "no");
    if (rep.outcome.violated) {
        std::printf("violation   %s: %s\n",
                    rep.outcome.violation.kind.c_str(),
                    rep.outcome.violation.description.c_str());
    }
    if (!rep.detail.empty())
        std::printf("detail      %s\n", rep.detail.c_str());
    std::printf("trace_json  %s\n", opt.traceOut.c_str());
    return rep.reproduced ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    if (!opt.replayPath.empty())
        return replayMode(opt);
    std::string err;
    if (!opt.config.validate(err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
    }

    ModelChecker checker(opt.config);
    if (!opt.quiet) {
        std::printf("# model_check");
        for (const std::string &line : opt.config.configLines())
            std::printf(" %s", line.c_str());
        std::printf("\n");
    }

    const CheckResult result =
        checker.run(opt.maxViolations, opt.maxPaths);
    printStats(result.stats);
    std::printf("exhaustive       %s\n",
                result.exhaustive ? "yes" : "no");

    if (result.counterexamples.empty())
        return result.exhaustive ? 0 : 3;

    // Write the first (minimized) counterexample, then prove it back:
    // replay must reproduce the same violation kind at the same
    // canonical state digest, with the span window dumped as JSON.
    const DecisionTrace &ce = result.counterexamples.front();
    {
        std::ofstream out(opt.ceOut);
        out << serializeTrace(ce);
    }
    std::printf("violation        %s: %s\n", ce.violation.kind.c_str(),
                ce.violation.description.c_str());
    std::printf("counterexample   %s (%zu decisions)\n",
                opt.ceOut.c_str(), ce.decisions.size());

    const ReplayReport rep =
        checker.replayWithChromeDump(ce, opt.traceOut);
    std::printf("replay           %s%s\n",
                rep.reproduced ? "reproduced" : "NOT reproduced",
                rep.bitExact ? ", bit-exact" : "");
    if (!rep.detail.empty())
        std::printf("replay_detail    %s\n", rep.detail.c_str());
    std::printf("trace_json       %s\n", opt.traceOut.c_str());
    return 1;
}
