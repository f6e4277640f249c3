/**
 * @file
 * hpmp_sim — standalone trace-driven simulator front-end.
 *
 * Replays an address trace (one `L|S|F <hex-va>` line per access; `#`
 * comments allowed) through the full machine model under a chosen
 * isolation scheme, auto-mapping every page the trace touches, and
 * prints the timing/reference breakdown. This is the quickest way to
 * evaluate "what would HPMP do to *my* access pattern" without
 * writing C++:
 *
 *   hpmp_sim --trace app.trace --core boom --scheme hpmp
 *   hpmp_sim --trace app.trace --scheme pmpt --pmptw-cache 8
 *
 * Without --trace a built-in demo pattern (sequential + random mix)
 * is used. The machine is MicroEnv's (workloads/micro_env.h). Exit 0
 * on success, 1 on a run error (unreadable trace, unwritable output,
 * tracing compiled out), 2 on a usage error (message and usage on
 * stderr, nothing on stdout).
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <span>
#include <string>

#include "base/parse.h"
#include "base/rng.h"
#include "base/stats.h"
#include "base/trace.h"
#include "core/core_model.h"
#include "workloads/micro_env.h"
#include "workloads/trace.h"

using namespace hpmp;

namespace
{

struct Options
{
    std::string tracePath;
    CoreKind core = CoreKind::Rocket;
    IsolationScheme scheme = IsolationScheme::Hpmp;
    unsigned pwcEntries = 8;
    unsigned pmptwEntries = 0;
    bool dumpStats = false;
    std::string statsJson;  //!< full registry JSON dump file
    std::string statsSeries; //!< windowed time-series JSON file
    uint64_t statsInterval = 100000; //!< simulated cycles per window
    std::string debugFlags; //!< tracer flags ("Walk,Tlb", "All")
    std::string traceOut;   //!< chrome://tracing ring dump file
};

void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(out,
        "usage: %s [options]\n"
        "  --trace FILE       address trace (L|S|F <hex-va> lines)\n"
        "  --core rocket|boom machine model (default rocket)\n"
        "  --scheme pmp|pmpt|hpmp|none\n"
        "                     isolation scheme (default hpmp)\n"
        "  --pwc N            page-walk-cache entries (default 8)\n"
        "  --pmptw-cache N    PMPTW-cache entries (default 0 = off)\n"
        "  --stats            dump raw machine counters\n"
        "  --stats-json FILE  write the full stats registry as JSON\n"
        "  --stats-series FILE\n"
        "                     write a windowed stats time-series: every\n"
        "                     counter snapshotted each --stats-interval\n"
        "                     simulated cycles during the replay\n"
        "  --stats-interval N cycles per series window, at least 1\n"
        "                     (default 100000)\n"
        "  --debug FLAGS      enable debug tracing (Walk,Hpmp,Pmpt,\n"
        "                     Monitor,Fault,Tlb or All)\n"
        "  --trace-out FILE   write the trace-event ring as\n"
        "                     chrome://tracing JSON\n"
        "exit: 0 ok, 1 run error (trace, output file), 2 usage error\n",
        argv0);
}

/** Parse the command line into `opts`; false (with `err`) on misuse. */
bool
parse(int argc, char **argv, Options &opts, std::string &err)
{
    for (int i = 1; i < argc && err.empty(); ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 < argc)
                return argv[++i];
            err = arg + " needs a value";
            return "";
        };
        auto number = [&](uint64_t min, uint64_t max) -> uint64_t {
            const std::string text = value();
            uint64_t v = 0;
            if (err.empty() &&
                (!parseUnsigned(text, v) || v < min || v > max))
                err = "bad number '" + text + "' for " + arg;
            return v;
        };
        if (arg == "--trace") {
            opts.tracePath = value();
        } else if (arg == "--core") {
            const std::string v = value();
            if (v == "rocket")
                opts.core = CoreKind::Rocket;
            else if (v == "boom")
                opts.core = CoreKind::Boom;
            else if (err.empty())
                err = "unknown core '" + v + "'";
        } else if (arg == "--scheme") {
            const std::string v = value();
            if (v == "pmp")
                opts.scheme = IsolationScheme::Pmp;
            else if (v == "pmpt")
                opts.scheme = IsolationScheme::PmpTable;
            else if (v == "hpmp")
                opts.scheme = IsolationScheme::Hpmp;
            else if (v == "none")
                opts.scheme = IsolationScheme::None;
            else if (err.empty())
                err = "unknown scheme '" + v + "'";
        } else if (arg == "--pwc") {
            opts.pwcEntries = unsigned(number(0, UINT_MAX));
        } else if (arg == "--pmptw-cache") {
            opts.pmptwEntries = unsigned(number(0, UINT_MAX));
        } else if (arg == "--stats") {
            opts.dumpStats = true;
        } else if (arg == "--stats-json") {
            opts.statsJson = value();
        } else if (arg == "--stats-series") {
            opts.statsSeries = value();
        } else if (arg == "--stats-interval") {
            opts.statsInterval = number(1, UINT64_MAX);
        } else if (arg == "--debug") {
            opts.debugFlags = value();
        } else if (arg == "--trace-out") {
            opts.traceOut = value();
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout);
            std::exit(0);
        } else {
            err = "unknown option '" + arg + "'";
        }
    }
    return err.empty();
}

Trace
demoTrace()
{
    Trace trace;
    Rng rng(1);
    Addr seq = 0x40000000;
    for (int i = 0; i < 20000; ++i) {
        if (rng.chance(0.8)) {
            seq += 8;
            if (seq >= 0x40000000 + 8_MiB)
                seq = 0x40000000;
            trace.append(seq, rng.chance(0.3) ? AccessType::Store
                                              : AccessType::Load);
        } else {
            trace.append(0x40000000 + alignDown(rng.below(8_MiB), 8),
                         AccessType::Load);
        }
    }
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    std::string err;
    if (!parse(argc, argv, opts, err)) {
        std::fprintf(stderr, "hpmp_sim: %s\n", err.c_str());
        usage(argv[0], stderr);
        return 2;
    }

    if (!opts.debugFlags.empty() || !opts.traceOut.empty()) {
#if HPMP_TRACE_ENABLED
        // --trace-out with no --debug records every category.
        const std::string &flags =
            opts.debugFlags.empty() ? "All" : opts.debugFlags;
        if (!Tracer::instance().enableByName(flags)) {
            std::fprintf(stderr, "hpmp_sim: unknown debug flag in '%s'\n",
                         flags.c_str());
            usage(argv[0], stderr);
            return 2;
        }
#else
        std::fprintf(stderr, "tracing was compiled out "
                             "(-DHPMP_TRACING=OFF); --debug/--trace-out "
                             "are unavailable\n");
        return 1;
#endif
    }

    Trace trace;
    if (opts.tracePath.empty()) {
        std::printf("no --trace given: using the built-in demo "
                    "pattern (20k accesses over 8 MiB)\n");
        trace = demoTrace();
    } else if (!trace.load(opts.tracePath)) {
        std::fprintf(stderr, "cannot load trace '%s'\n",
                     opts.tracePath.c_str());
        return 1;
    }
    if (trace.empty()) {
        std::fprintf(stderr, "trace is empty\n");
        return 1;
    }

    // Map every page the trace touches, rwx, to sequential frames in
    // the protected data region.
    MachineParams params = machineParams(opts.core);
    params.pwcEntries = opts.pwcEntries;
    params.pmptwEntries = opts.pmptwEntries;
    MicroEnv env(params, opts.scheme);
    Machine &machine = env.machine();

    std::set<uint64_t> vpns;
    for (const TraceRecord &rec : trace.records())
        vpns.insert(pageNumber(rec.va));
    Addr next_pa = MicroEnv::kFirstDataPa;
    for (const uint64_t vpn : vpns) {
        env.pt().map(pageAddr(vpn), next_pa, Perm::rwx(), true);
        next_pa += kPageSize;
    }
    machine.coldReset();

    CoreModel model(params);

    // --stats-series: snapshot the machine registry on simulated-cycle
    // boundaries. The replay is chunked so the sampler sees the clock
    // advance; without the flag the whole trace goes down in one batch.
    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
    if (!opts.statsSeries.empty()) {
        machine.registerStats(seriesRegistry);
        sampler = std::make_unique<StatSampler>(seriesRegistry,
                                                opts.statsInterval);
    }

    const auto t0 = std::chrono::steady_clock::now();
    ReplayResult result;
    if (sampler) {
        constexpr size_t kChunk = 512;
        std::span<const TraceRecord> recs(trace.records());
        while (!recs.empty()) {
            const size_t n = std::min(recs.size(), kChunk);
            const BatchOutcome out = machine.accessBatch(
                recs.first(n), &model);
            result.accesses += out.accesses;
            result.faults += out.faults;
            result.cycles += out.cycles;
            result.totalRefs += out.totalRefs();
            result.pmptRefs += out.pmptRefs;
            recs = recs.subspan(n);
            sampler->advanceTo(model.cycles());
        }
        sampler->sample(model.cycles());
    } else {
        result = replayTrace(machine, model, trace);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double host_sec = std::chrono::duration<double>(t1 - t0).count();

    std::printf("\n%s / %s, PWC %u, PMPTW-cache %u\n",
                params.name.c_str(), toString(opts.scheme),
                opts.pwcEntries, opts.pmptwEntries);
    std::printf("  accesses        %12lu (%lu pages)\n",
                (unsigned long)result.accesses,
                (unsigned long)vpns.size());
    std::printf("  faults          %12lu\n",
                (unsigned long)result.faults);
    std::printf("  memory refs     %12lu (%.2f per access)\n",
                (unsigned long)result.totalRefs,
                double(result.totalRefs) / double(result.accesses));
    std::printf("  pmpte refs      %12lu\n",
                (unsigned long)result.pmptRefs);
    std::printf("  core cycles     %12lu (%.2f per access)\n",
                (unsigned long)model.cycles(),
                double(model.cycles()) / double(result.accesses));
    std::printf("  TLB miss rate   %11.2f%%\n",
                100.0 * double(machine.tlb().misses()) /
                    double(result.accesses));
    if (host_sec > 0.0) {
        std::printf("  replay rate     %12.2f Maccesses/s (host "
                    "wall-clock)\n",
                    double(result.accesses) / host_sec / 1e6);
    }
    if (opts.dumpStats)
        std::printf("\n%s", machine.stats().dump().c_str());
    if (!opts.statsJson.empty()) {
        StatRegistry registry;
        machine.registerStats(registry);
        if (!registry.writeJsonFile(opts.statsJson)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts.statsJson.c_str());
            return 1;
        }
        std::printf("stats JSON written to %s\n", opts.statsJson.c_str());
    }
    if (sampler) {
        if (!sampler->writeJsonFile(opts.statsSeries)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts.statsSeries.c_str());
            return 1;
        }
        std::printf("stats series written to %s (%zu windows, "
                    "%lu dropped)\n",
                    opts.statsSeries.c_str(), sampler->windows(),
                    (unsigned long)sampler->droppedWindows());
    }
#if HPMP_TRACE_ENABLED
    // With tracing compiled out --trace-out already exited above, so
    // this block must not odr-use the stub tracer: the release binary
    // is asserted to carry no tracer symbol at all.
    if (!opts.traceOut.empty()) {
        TraceRing &ring = Tracer::instance().ring();
        if (!ring.writeChromeJson(opts.traceOut)) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts.traceOut.c_str());
            return 1;
        }
        std::printf("trace window written to %s (%lu events, "
                    "%lu dropped)\n",
                    opts.traceOut.c_str(), (unsigned long)ring.size(),
                    (unsigned long)ring.dropped());
    }
#endif
    return 0;
}
