/**
 * @file
 * Simulator-throughput regression benchmarks: host-side cost of one
 * simulated access per scheme and state, plus PMP-table update,
 * domain-measurement and Kron-graph build throughput. These guard the
 * engineering quality of the simulator itself rather than reproducing
 * a paper figure.
 *
 * Two layers:
 *   - google-benchmark micros (BM_*), run with the usual flags;
 *   - a fixed JSON harness that replays a deterministic hot-set
 *     pattern through the virtualized machine for each method of
 *     Fig. 13 and writes BENCH_simperf.json (simulated Maccesses/s
 *     and simulated cycles per access). `--json-only` skips the
 *     micros.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "base/rng.h"
#include "base/stats.h"
#include "bench/common.h"
#include "monitor/attestation.h"
#include "workloads/gap.h"
#include "workloads/virt_env.h"

namespace hpmp::bench
{
namespace
{

void
BM_AccessTlbHit(benchmark::State &state)
{
    MicroEnv env(rocketParams(),
                 IsolationScheme(int(state.range(0))));
    const Addr va = env.mapPages(1);
    Machine &m = env.machine();
    (void)m.access(va, AccessType::Load);
    for (auto _ : state)
        benchmark::DoNotOptimize(m.access(va, AccessType::Load));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccessTlbHit)
    ->Arg(int(IsolationScheme::Pmp))
    ->Arg(int(IsolationScheme::PmpTable))
    ->Arg(int(IsolationScheme::Hpmp));

/**
 * TLB hits spread across a resident hot set: the seed's linear L1
 * scan paid O(occupancy) here, the indexed TLB pays one probe.
 */
void
BM_AccessTlbHitSpread(benchmark::State &state)
{
    MicroEnv env(rocketParams(),
                 IsolationScheme(int(state.range(0))));
    constexpr unsigned kHot = 24; // fits the 32-entry L1
    const Addr base = env.mapPages(kHot);
    Machine &m = env.machine();
    for (unsigned i = 0; i < kHot; ++i)
        (void)m.access(base + pageAddr(i), AccessType::Load);
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.access(base + pageAddr(i), AccessType::Load));
        i = (i + 1) % kHot;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccessTlbHitSpread)
    ->Arg(int(IsolationScheme::Pmp))
    ->Arg(int(IsolationScheme::Hpmp));

/**
 * One TLB-missing access per iteration. Only the page's own entry is
 * dropped: flushAll() would clear all 1024 L2 slots every iteration
 * and time the flush rather than the walk.
 */
void
BM_AccessTlbMiss(benchmark::State &state)
{
    MicroEnv env(rocketParams(),
                 IsolationScheme(int(state.range(0))));
    const Addr va = env.mapPages(1);
    Machine &m = env.machine();
    for (auto _ : state) {
        m.tlb().flushPage(va);
        benchmark::DoNotOptimize(m.access(va, AccessType::Load));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AccessTlbMiss)
    ->Arg(int(IsolationScheme::Pmp))
    ->Arg(int(IsolationScheme::PmpTable))
    ->Arg(int(IsolationScheme::Hpmp));

void
BM_PmpTableUpdate(benchmark::State &state)
{
    PhysMem mem(16_GiB);
    PmpTable table(mem, bumpAllocator(64_MiB), 2);
    uint64_t offset = 0;
    for (auto _ : state) {
        table.setPerm(offset % 8_GiB, 64_KiB, Perm::rw());
        offset += 64_KiB;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PmpTableUpdate);

void
BM_ColdWalk(benchmark::State &state)
{
    MicroEnv env(rocketParams(), IsolationScheme::PmpTable);
    const Addr va = env.mapPages(1);
    Machine &m = env.machine();
    for (auto _ : state) {
        m.coldReset();
        benchmark::DoNotOptimize(m.access(va, AccessType::Load));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdWalk);

/**
 * Measure a 64 MiB region in which only every 256th page holds data:
 * the shape of a freshly granted domain. Cost should follow the few
 * backed pages, not the region size.
 */
void
BM_MeasureSparse(benchmark::State &state)
{
    PhysMem mem(16_GiB);
    constexpr Addr kBase = 4_GiB;
    constexpr uint64_t kSize = 64_MiB;
    for (Addr page = kBase; page < kBase + kSize; page += 256 * kPageSize)
        mem.write64(page + 64, page);
    for (auto _ : state)
        benchmark::DoNotOptimize(Attestor::measure(mem, kBase, kSize));
    state.SetBytesProcessed(state.iterations() * kSize);
}
BENCHMARK(BM_MeasureSparse)->Unit(benchmark::kMicrosecond);

/** Measure 4 MiB of fully populated random pages: the dense worst case. */
void
BM_MeasurePopulated(benchmark::State &state)
{
    PhysMem mem(16_GiB);
    constexpr Addr kBase = 4_GiB;
    constexpr uint64_t kSize = 4_MiB;
    Rng rng(5);
    for (Addr a = kBase; a < kBase + kSize; a += 8)
        mem.write64(a, rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(Attestor::measure(mem, kBase, kSize));
    state.SetBytesProcessed(state.iterations() * kSize);
}
BENCHMARK(BM_MeasurePopulated)->Unit(benchmark::kMicrosecond);

/** A fresh environment with an active host address space to build in. */
struct KronRig
{
    explicit KronRig(const EnvConfig &config)
        : env(config),
          as(env.hostKernel().createAddressSpace()),
          model(env.makeCoreModel()),
          runner(env.hostKernel(), *as, model)
    {
        env.hostKernel().activate(*as, PrivMode::User);
    }

    TeeEnv env;
    std::unique_ptr<AddressSpace> as;
    CoreModel model;
    Runner runner;
};

/**
 * Build one 2^scale-vertex, degree-8 Kron graph (GAP's input): RMAT
 * generation, CSR construction and the populated mmap of both arrays.
 * Each build gets a fresh rig, set up and torn down outside the timing.
 */
void
BM_KronBuild(benchmark::State &state)
{
    EnvConfig config;
    config.core = CoreKind::Rocket;
    config.scheme = IsolationScheme::Hpmp;
    const auto scale = static_cast<unsigned>(state.range(0));
    std::unique_ptr<KronRig> rig;
    std::unique_ptr<KronGraph> graph;
    for (auto _ : state) {
        state.PauseTiming();
        graph.reset();
        rig.reset();
        rig = std::make_unique<KronRig>(config);
        state.ResumeTiming();
        graph = std::make_unique<KronGraph>(rig->runner, scale, 8);
        benchmark::DoNotOptimize(graph->numEdges());
    }
}
BENCHMARK(BM_KronBuild)->Arg(15)->Arg(18)->Unit(benchmark::kMillisecond);

/** One scheme's throughput measurement for BENCH_simperf.json. */
struct SimperfResult
{
    const char *name;
    double maccessesPerSec = 0.0;
    double cyclesPerAccess = 0.0;
    double tlbHitRate = 0.0;
    uint64_t accesses = 0;
};

/** Geometry of one simperf replay pattern. */
struct SimperfPattern
{
    const char *name;
    unsigned hotPages;      //!< round-robin working set
    unsigned coldPages;     //!< uniform excursion set (every 17th access)
    bool pageTiedOffsets;   //!< one fixed data line per page (see below)
};

/**
 * "resident": the working set (hot + excursion pages, assumed
 * gva-contiguous) outgrows the 32-entry L1 TLB but stays inside the
 * 1024-entry L2 TLB, so every access exercises the L1 lookup-miss +
 * L2-hit + L1-promotion machinery — exactly the paths where the seed
 * paid two linear scans of the fully-associative array per access and
 * the indexed TLB pays O(1). Each page owns one fixed data line whose
 * set index equals its page number mod 64, so the 256 working-set
 * lines fill the Rocket 64-set x 4-way L1D exactly and the data side
 * never misses: the measured host time is the translation machinery
 * itself.
 *
 * "walk_heavy": the excursion set outgrows the L2 TLB, so a steady
 * fraction of accesses performs the full 3D walk with its per-scheme
 * physical checks — this is where cycles_per_access separates the
 * four methods.
 */
constexpr SimperfPattern kPatterns[] = {
    {"resident", 224, 32, true},
    {"walk_heavy", 24, 4096, false},
};

/**
 * Deterministic replay stream for one pattern: mostly round-robin
 * over the hot set, every 17th access an excursion drawn uniformly
 * from the cold set. Identical for every scheme and run.
 */
std::vector<AccessRequest>
simperfRequests(const SimperfPattern &pattern, Addr hot_base,
                Addr cold_base)
{
    constexpr unsigned kBatch = 1u << 16;
    std::vector<AccessRequest> reqs;
    reqs.reserve(kBatch);
    Rng rng(7);
    for (unsigned i = 0; i < kBatch; ++i) {
        const AccessType type =
            rng.chance(0.3) ? AccessType::Store : AccessType::Load;
        const bool excursion = i % 17 == 16;
        const unsigned page = excursion ? rng.below(pattern.coldPages)
                                        : i % pattern.hotPages;
        uint64_t offset;
        if (pattern.pageTiedOffsets) {
            // Page-global index assuming the cold region directly
            // follows the hot one; its low 6 bits pick the page's
            // dedicated L1D set.
            const unsigned global =
                excursion ? pattern.hotPages + page : page;
            offset = uint64_t(global % 64) * 64 + 8 * (i % 8);
        } else {
            offset = 8 * (i % 512);
        }
        reqs.push_back({(excursion ? cold_base : hot_base) +
                            pageAddr(page) + offset, type});
    }
    return reqs;
}

/** Windowed-telemetry knobs threaded down from main (off when null). */
struct SimperfSeries
{
    std::string path;          //!< output file; empty = disabled
    uint64_t interval = 100000; //!< simulated cycles per window
    std::string json;          //!< accumulated per-run series records
};

SimperfResult
runSimperfScheme(VirtScheme scheme, const SimperfPattern &pattern,
                 double min_seconds, SimperfSeries *series)
{
    VirtEnv env(CoreKind::Rocket, scheme);
    const Addr hot = env.mapGuestPages(pattern.hotPages);
    const Addr cold = env.mapGuestPages(pattern.coldPages);
    const std::vector<AccessRequest> reqs =
        simperfRequests(pattern, hot, cold);

    VirtMachine &vm = env.vm();
    vm.coldReset();
    (void)vm.accessBatch(reqs); // warm TLBs, caches, tables

    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
    if (series && !series->path.empty()) {
        vm.registerStats(seriesRegistry);
        sampler = std::make_unique<StatSampler>(seriesRegistry,
                                                series->interval);
    }

    SimperfResult result{toString(scheme)};
    uint64_t cycles = 0, hits = 0, faults = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        const BatchOutcome out = vm.accessBatch(reqs);
        result.accesses += out.accesses;
        cycles += out.cycles;
        hits += out.tlbHits;
        faults += out.faults;
        if (sampler)
            sampler->advanceTo(cycles);
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0).count();
    } while (elapsed < min_seconds);

    if (sampler) {
        sampler->sample(cycles);
        if (!series->json.empty())
            series->json += ",\n";
        series->json += "    {\"pattern\": \"";
        series->json += pattern.name;
        series->json += "\", \"scheme\": \"";
        series->json += toString(scheme);
        series->json += "\", \"series\": ";
        series->json += sampler->dumpJson();
        series->json += "}";
    }

    fatal_if(faults != 0, "simperf pattern faulted (%lu)",
             (unsigned long)faults);
    result.maccessesPerSec = double(result.accesses) / elapsed / 1e6;
    result.cyclesPerAccess = double(cycles) / double(result.accesses);
    result.tlbHitRate = double(hits) / double(result.accesses);
    return result;
}

int
writeSimperfJson(const char *path, double min_seconds,
                 const char *only_pattern, SimperfSeries *series)
{
    const VirtScheme schemes[] = {VirtScheme::Pmp, VirtScheme::Pmpt,
                                  VirtScheme::Hpmp, VirtScheme::HpmpGpt};

    if (only_pattern) {
        bool known = false;
        for (const SimperfPattern &pattern : kPatterns)
            known = known || std::strcmp(pattern.name, only_pattern) == 0;
        if (!known) {
            std::fprintf(stderr, "unknown --pattern=%s (have:",
                         only_pattern);
            for (const SimperfPattern &pattern : kPatterns)
                std::fprintf(stderr, " %s", pattern.name);
            std::fprintf(stderr, ")\n");
            return 1;
        }
    }

    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"simperf\",\n"
                      "  \"core\": \"rocket\",\n  \"patterns\": [\n");
    bool first_pattern = true;
    for (const SimperfPattern &pattern : kPatterns) {
        if (only_pattern && std::strcmp(pattern.name, only_pattern) != 0)
            continue;
        banner(std::string("simperf ") + pattern.name +
               ": simulated-access throughput");
        row({"scheme", "Macc/s", "cyc/access", "TLB hit"});
        std::fprintf(out,
                     "%s    {\"name\": \"%s\", \"hot_pages\": %u, "
                     "\"cold_pages\": %u, \"schemes\": [\n",
                     first_pattern ? "" : ",\n", pattern.name,
                     pattern.hotPages, pattern.coldPages);
        first_pattern = false;
        bool first = true;
        for (const VirtScheme scheme : schemes) {
            const SimperfResult r =
                runSimperfScheme(scheme, pattern, min_seconds, series);
            row({r.name, fmt("%.2f", r.maccessesPerSec),
                 fmt("%.2f", r.cyclesPerAccess), pct(r.tlbHitRate)});
            std::fprintf(out,
                         "%s      {\"name\": \"%s\", "
                         "\"maccesses_per_sec\": %.3f, "
                         "\"cycles_per_access\": %.3f, "
                         "\"tlb_hit_rate\": %.4f, "
                         "\"accesses\": %lu}",
                         first ? "" : ",\n", r.name, r.maccessesPerSec,
                         r.cyclesPerAccess, r.tlbHitRate,
                         (unsigned long)r.accesses);
            first = false;
        }
        std::fprintf(out, "\n    ]}");
    }
    std::fprintf(out, "\n  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);

    if (series && !series->path.empty()) {
        std::FILE *sf = std::fopen(series->path.c_str(), "w");
        if (!sf) {
            std::fprintf(stderr, "cannot write %s\n",
                         series->path.c_str());
            return 1;
        }
        std::fprintf(sf, "{\n  \"simperf_series\": [\n%s\n  ]\n}\n",
                     series->json.c_str());
        std::fclose(sf);
        std::printf("stats series written to %s\n", series->path.c_str());
    }
    return 0;
}

} // namespace
} // namespace hpmp::bench

int
main(int argc, char **argv)
{
    bool json_only = false;
    double min_seconds = 0.25;
    const char *only_pattern = nullptr;
    hpmp::bench::SimperfSeries series;
    for (int i = 1; i < argc; ++i) {
        bool consume = true;
        if (std::strcmp(argv[i], "--json-only") == 0) {
            json_only = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            min_seconds = 0.02;
        } else if (std::strncmp(argv[i], "--pattern=", 10) == 0) {
            only_pattern = argv[i] + 10;
        } else if (std::strncmp(argv[i], "--stats-series=", 15) == 0) {
            series.path = argv[i] + 15;
        } else if (std::strncmp(argv[i], "--stats-interval=", 17) == 0) {
            series.interval = std::strtoull(argv[i] + 17, nullptr, 0);
        } else {
            consume = false;
        }
        if (consume) {
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            --i;
        }
    }

    if (!json_only) {
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    return hpmp::bench::writeSimperfJson("BENCH_simperf.json",
                                         min_seconds, only_pattern,
                                         &series);
}
