/**
 * @file
 * Workload-layer tests: environment assembly, enclave lifecycle,
 * runner fault handling, SimArray round-trips and smoke tests of each
 * workload model, including the cross-scheme ordering the paper's
 * evaluation depends on (PMP <= HPMP <= PMPT).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "workloads/env.h"
#include "workloads/gap.h"
#include "workloads/lmbench.h"
#include "workloads/redis.h"
#include "workloads/runner.h"
#include "workloads/rv8.h"
#include "workloads/serverless.h"

namespace hpmp
{
namespace
{

EnvConfig
cfg(IsolationScheme scheme, CoreKind core = CoreKind::Rocket)
{
    EnvConfig c;
    c.core = core;
    c.scheme = scheme;
    return c;
}

TEST(TeeEnv, EnclaveLifecycle)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    auto enclave = env.createEnclave(8_MiB);
    ASSERT_NE(enclave, nullptr);
    EXPECT_GT(enclave->memSize, 8_MiB - 1);
    EXPECT_NE(enclave->domain, 0u);

    env.enterEnclave(*enclave, PrivMode::User);
    EXPECT_EQ(env.monitor().currentDomain(), enclave->domain);

    // The enclave can use its own memory...
    const Addr va = enclave->as->mmap(kPageSize, Perm::rw(), true, true);
    EXPECT_TRUE(env.machine().access(va, AccessType::Load).ok());

    // ...but not the host's.
    AccessOutcome out;
    EXPECT_EQ(env.machine().checkPhys(TeeEnv::kHostBase + 64_MiB,
                                      AccessType::Load, out),
              Fault::LoadAccessFault);

    env.exitToHost();
    env.destroyEnclave(std::move(enclave));
    EXPECT_EQ(env.monitor().currentDomain(), 0u);
}

TEST(TeeEnv, CreateCyclesAreTheCreationsMonitorCallCycles)
{
    // One GMS registration under PMP and PMPT, two (PT pool + data)
    // under HPMP; each is a committed monitor call that samples its
    // cycles into monitor.call_cycles.
    for (const auto &[scheme, calls] :
         {std::pair{IsolationScheme::Pmp, 1u},
          std::pair{IsolationScheme::PmpTable, 1u},
          std::pair{IsolationScheme::Hpmp, 2u}}) {
        SCOPED_TRACE(toString(scheme));
        TeeEnv env(cfg(scheme));
        const Distribution &calls_dist =
            *env.monitor().stats().getDist("call_cycles");
        const uint64_t count0 = calls_dist.count();
        const uint64_t sum0 = calls_dist.sum();
        uint64_t create_cycles = 0;
        auto enclave = env.createEnclave(8_MiB, &create_cycles);
        EXPECT_EQ(calls_dist.count() - count0, calls);
        EXPECT_EQ(create_cycles, calls_dist.sum() - sum0);
        EXPECT_EQ(create_cycles, enclave->kernel->registrationCycles());
        // Every call at least traps into the monitor and back.
        EXPECT_GE(create_cycles,
                  calls * env.monitor().config().costs.trapCycles);
        env.destroyEnclave(std::move(enclave));
    }
}

TEST(TeeEnv, MeasuredEnclaveAttestation)
{
    EnvConfig c = cfg(IsolationScheme::Hpmp);
    c.measureEnclaves = true;
    TeeEnv env(c);
    auto enclave = env.createEnclave(1_MiB);
    EXPECT_NE(enclave->initialMeasurement, 0u);

    const AttestationReport report = env.attestEnclave(*enclave, 42);
    EXPECT_TRUE(env.monitor().attestor().verify(report, 42));
    // Untouched enclave: the report matches the creation measurement.
    EXPECT_EQ(report.measurement, enclave->initialMeasurement);

    // Running code in the enclave changes its memory, and with it the
    // next measurement.
    env.enterEnclave(*enclave, PrivMode::User);
    const Addr va = enclave->as->mmap(kPageSize, Perm::rw(), true, true);
    env.machine().mem().write64(
        *enclave->as->pageTable().translate(va), 0x777);
    env.exitToHost();
    const AttestationReport after = env.attestEnclave(*enclave, 43);
    EXPECT_NE(after.measurement, enclave->initialMeasurement);

    env.destroyEnclave(std::move(enclave));
}

TEST(Lmbench, DeterministicAcrossRuns)
{
    // Two fresh environments with the same configuration must produce
    // bit-identical results (fixed RNG seeds; no wall-clock anywhere).
    double us[2];
    for (int i = 0; i < 2; ++i) {
        TeeEnv env(cfg(IsolationScheme::PmpTable));
        LmbenchSuite suite(env);
        us[i] = suite.run("stat", 30);
    }
    EXPECT_DOUBLE_EQ(us[0], us[1]);
}

TEST(Runner, ServicesDemandFaults)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    auto as = env.hostKernel().createAddressSpace();
    env.hostKernel().activate(*as, PrivMode::User);

    CoreModel model = env.makeCoreModel();
    Runner runner(env.hostKernel(), *as, model);
    const Addr va = as->mmap(8 * kPageSize, Perm::rw(), true, false);

    runner.load(va);
    runner.store(va + kPageSize);
    EXPECT_EQ(runner.faultsServiced(), 2u);
    EXPECT_EQ(as->pageFaults(), 2u);
    EXPECT_GT(model.cycles(), 0u);
}

TEST(Runner, SimArrayRoundTrip)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    auto as = env.hostKernel().createAddressSpace();
    env.hostKernel().activate(*as, PrivMode::User);
    CoreModel model = env.makeCoreModel();
    Runner runner(env.hostKernel(), *as, model);

    SimArray<uint64_t> arr(runner, 1000);
    for (uint64_t i = 0; i < 1000; ++i)
        arr.init(i, i * 3);
    EXPECT_EQ(arr.get(500), 1500u);
    arr.set(500, 77);
    EXPECT_EQ(arr.get(500), 77u);

    SimArray<uint32_t> small(runner, 10);
    small.set(3, 0xabcd);
    EXPECT_EQ(small.get(3), 0xabcdu);
}

TEST(Runner, SimArrayMoveInMatchesCountConstructor)
{
    // Two fresh host address spaces, one per constructor: both must
    // place the array at the same VA.
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    CoreModel model = env.makeCoreModel();
    auto as_count = env.hostKernel().createAddressSpace();
    auto as_moved = env.hostKernel().createAddressSpace();

    env.hostKernel().activate(*as_count, PrivMode::User);
    Runner counted(env.hostKernel(), *as_count, model);
    SimArray<uint64_t> by_count(counted, 1000);

    env.hostKernel().activate(*as_moved, PrivMode::User);
    Runner moved(env.hostKernel(), *as_moved, model);
    std::vector<uint64_t> values(1000);
    for (uint64_t i = 0; i < values.size(); ++i)
        values[i] = i * 7 + 1;
    SimArray<uint64_t> by_move(moved, std::move(values));

    EXPECT_EQ(by_move.base(), by_count.base());
    EXPECT_EQ(by_move.size(), 1000u);

    const StatGroup &stats = env.machine().stats();
    const uint64_t before = stats.get("accesses");
    EXPECT_EQ(by_move.peek(999), 999u * 7 + 1);
    EXPECT_EQ(by_move.peek(0), 1u);
    EXPECT_EQ(stats.get("accesses"), before);
    EXPECT_EQ(by_move.get(500), 500u * 7 + 1);
    EXPECT_EQ(stats.get("accesses"), before + 1);
}

TEST(Lmbench, SchemesOrderAsExpected)
{
    // stat is kernel-memory heavy: PMPT must cost more than PMP and
    // HPMP must recover most of the gap.
    double us[3];
    const IsolationScheme schemes[3] = {IsolationScheme::Pmp,
                                        IsolationScheme::Hpmp,
                                        IsolationScheme::PmpTable};
    for (int i = 0; i < 3; ++i) {
        TeeEnv env(cfg(schemes[i]));
        LmbenchSuite suite(env);
        us[i] = suite.run("stat", 60);
    }
    EXPECT_LT(us[0], us[2]);          // PMP < PMPT
    EXPECT_LE(us[1], us[2]);          // HPMP <= PMPT
    EXPECT_LT(us[1] - us[0], us[2] - us[0]); // HPMP recovers
}

TEST(Lmbench, PageFaultArenasDoNotLeakFrames)
{
    // Each pagefault round faults in a fresh page of an 8 MiB arena;
    // an exhausted arena is unmapped before the next one is mapped,
    // so across three arenas the data allocator stays within one
    // arena of where the first left it. (PMPT takes its PT frames
    // from the same allocator, so those count too.)
    constexpr unsigned kArenaPages = 8_MiB / kPageSize;
    TeeEnv env(cfg(IsolationScheme::PmpTable));
    LmbenchSuite suite(env);
    const PageAllocator &data = env.hostKernel().dataAllocator();

    // run() adds one warm-up call, so each run fills exactly one arena.
    suite.run("pagefault", kArenaPages - 1);
    const uint64_t first = data.freeBytes();
    for (int arena = 1; arena < 3; ++arena) {
        suite.run("pagefault", kArenaPages - 1);
        const uint64_t now = data.freeBytes();
        EXPECT_LE(std::max(now, first) - std::min(now, first), 8_MiB)
            << "arena " << arena;
    }
}

TEST(Lmbench, AllSyscallsRun)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    LmbenchSuite suite(env);
    for (const auto &name : lmbenchSyscalls()) {
        const double us = suite.run(name, 6);
        EXPECT_GT(us, 0.0) << name;
    }
    for (const auto &name : lmbenchExtendedSyscalls()) {
        const double us = suite.run(name, 6);
        EXPECT_GT(us, 0.0) << name;
    }
}

TEST(Lmbench, OpCostsPinned)
{
    // Each op's modelled microseconds on BOOM, recorded from the
    // inline schedule before LmbenchSuite::run timed its phases on
    // timing streams: both schedules give the same bits.
    struct Pin
    {
        IsolationScheme scheme;
        double us[12]; //!< syscalls, then extended ops, run in that order
    };
    const Pin pins[] = {
        {IsolationScheme::Pmp,
         {0x1.229db22d0e56p-2, 0x1.543b645a1cacp+0, 0x1.9a96872b020c5p-1,
          0x1.0b74395810625p+2, 0x1.9d46a7ef9db23p-1, 0x1.debe978d4fdf5p+2,
          0x1.cf1cbc6a7ef9ep+3, 0x1.c1070a3d70a3ep+6, 0x1.0effae147ae14p+7,
          0x1.9293f7ced9168p+0, 0x1.6d1810624dd2fp+0, 0x1.04fe560418937p+2}},
        {IsolationScheme::PmpTable,
         {0x1.c2a7ef9db22dp-2, 0x1.dc90624dd2f1ap+0, 0x1.18170a3d70a3dp+0,
          0x1.57d72b020c49bp+2, 0x1.034e560418937p+0, 0x1.284db22d0e561p+3,
          0x1.1f6828f5c28f6p+4, 0x1.0b3cf5c28f5c2p+7, 0x1.3b910a3d70a3ep+7,
          0x1.dbe24dd2f1aap+0, 0x1.740a3d70a3d71p+0, 0x1.4b5c49ba5e354p+2}},
        {IsolationScheme::Hpmp,
         {0x1.ac22d0e560418p-2, 0x1.cd051eb851eb8p+0, 0x1.079ba5e353f7dp+0,
          0x1.419353f7ced91p+2, 0x1.da5a1cac08313p-1, 0x1.0f6d0e560418ap+3,
          0x1.05edfbe76c8b4p+4, 0x1.ec3828f5c28f6p+6, 0x1.26ddeb851eb85p+7,
          0x1.b57b645a1cacp+0, 0x1.715f3b645a1cbp+0, 0x1.2b2624dd2f1aap+2}},
    };
    std::vector<std::string> ops = lmbenchSyscalls();
    for (const std::string &op : lmbenchExtendedSyscalls())
        ops.push_back(op);
    ASSERT_EQ(ops.size(), 12u);
    for (const Pin &pin : pins) {
        TeeEnv env(cfg(pin.scheme, CoreKind::Boom));
        LmbenchSuite suite(env);
        for (size_t k = 0; k < ops.size(); ++k) {
            const uint64_t streams = env.machine().streamsOpened();
            const double us = suite.run(ops[k], 40);
            EXPECT_EQ(us, pin.us[k])
                << toString(pin.scheme) << " " << ops[k];
            // The warm-up and the measured loop each ran on a stream.
            EXPECT_EQ(env.machine().streamsOpened(), streams + 2)
                << toString(pin.scheme) << " " << ops[k];
        }
    }
}

TEST(Rv8, AppRunsAndSchemesOrder)
{
    const Rv8App app{"norx-mini", 50000000ULL, 0.34, 2_MiB,
                     MemPattern::Mixed};
    TeeEnv pmp(cfg(IsolationScheme::Pmp));
    TeeEnv pmpt(cfg(IsolationScheme::PmpTable));
    const double t_pmp = runRv8App(pmp, app, 30000);
    const double t_pmpt = runRv8App(pmpt, app, 30000);
    EXPECT_GT(t_pmp, 0.0);
    EXPECT_GT(t_pmpt, t_pmp * 0.99); // table never meaningfully faster
}

TEST(Gap, KernelsRunOnKronGraph)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    GapSuite suite(env, /*scale=*/10, /*degree=*/8);
    EXPECT_GT(suite.graph().numVertices(), 0u);
    EXPECT_GT(suite.graph().numEdges(), suite.graph().numVertices());
    for (const auto &kernel : gapKernels())
        EXPECT_GT(suite.run(kernel), 0.0) << kernel;
}

TEST(Gap, KernelSecondsPinnedAtScale12)
{
    // Each kernel's modelled seconds, recorded from the inline
    // schedule before GapSuite::run timed its kernels on a timing
    // stream: both schedules give the same bits.
    struct Pin
    {
        IsolationScheme scheme;
        double seconds[6]; //!< gapKernels() order, run in that order
    };
    const Pin pins[] = {
        {IsolationScheme::Pmp,
         {0x1.682fea287d4cbp-10, 0x1.8286ad83b14ffp-12,
          0x1.305bce9910eedp-11, 0x1.ec6c3e308116p-12,
          0x1.cfd86fee248b5p-11, 0x1.4bb9c566af951p-8}},
        {IsolationScheme::PmpTable,
         {0x1.6905b938ac801p-10, 0x1.854a460e1b0f9p-12,
          0x1.31f68365b6cf4p-11, 0x1.ef7e38d13e06ep-12,
          0x1.d1378d017d251p-11, 0x1.4bcbc19b269dbp-8}},
        {IsolationScheme::Hpmp,
         {0x1.68c9ff234769p-10, 0x1.84a5fdbc3f1c3p-12,
          0x1.31a8214f639e1p-11, 0x1.eeac4e2fc16c5p-12,
          0x1.d0e524205f8acp-11, 0x1.4bc2a124d3491p-8}},
    };
    const std::vector<std::string> kernels = gapKernels();
    ASSERT_EQ(kernels.size(), 6u);
    for (const Pin &pin : pins) {
        TeeEnv env(cfg(pin.scheme));
        GapSuite suite(env, /*scale=*/12, /*degree=*/8);
        const uint64_t streams = env.machine().streamsOpened();
        for (size_t k = 0; k < kernels.size(); ++k) {
            EXPECT_EQ(suite.run(kernels[k]), pin.seconds[k])
                << toString(pin.scheme) << " " << kernels[k];
        }
        // Every kernel ran on a stream of its own.
        EXPECT_EQ(env.machine().streamsOpened(), streams + kernels.size());
    }
}

// ---- Runner on a timing stream vs inline ----------------------------

/** What a Runner replay leaves behind, for byte-exact comparison. */
struct RunnerState
{
    uint64_t cycles = 0;
    double seconds = 0.0;
    uint64_t faults = 0;
    uint64_t checksum = 0; //!< the load64 values
    std::string stats;     //!< "machine.*": ref.*, walk_cycles, TLB...
    std::string caches;
    std::vector<AccessRequest> trace;
    uint64_t streams = 0;
};

/**
 * A seeded stream through one Runner on a fresh environment: loads,
 * stores, load64/store64 and compute over a populated region and a
 * demand-paged one (the first touch of each page faults, mid-stream),
 * with streamRead/streamWrite batches in between, all recorded by
 * setTrace. With `stream`, a timing stream is open for all of it.
 */
RunnerState
runSeededStream(IsolationScheme scheme, bool stream)
{
    EnvConfig c = cfg(scheme);
    c.pmptwEntries = 8;
    TeeEnv env(c);
    auto as = env.hostKernel().createAddressSpace();
    env.hostKernel().activate(*as, PrivMode::User);
    CoreModel model = env.makeCoreModel();
    Runner runner(env.hostKernel(), *as, model);
    Trace trace;
    runner.setTrace(&trace);
    constexpr uint64_t kHotPages = 64;
    constexpr uint64_t kLazyPages = 768;
    const Addr hot = as->mmap(kHotPages * kPageSize, Perm::rw());
    const Addr lazy =
        as->mmap(kLazyPages * kPageSize, Perm::rw(), true, false);

    RunnerState state;
    Rng rng(42);
    {
        std::optional<Machine::TimingStream> open;
        if (stream)
            open.emplace(env.machine(), model);
        for (unsigned i = 0; i < 30000; ++i) {
            const bool is_hot = rng.below(100) < 75;
            const Addr va =
                is_hot ? hot + 8 * rng.below(kHotPages * kPageSize / 8)
                       : lazy + 8 * rng.below(kLazyPages * kPageSize / 8);
            switch (rng.below(4)) {
              case 0:
                runner.store(va);
                break;
              case 1:
                runner.store64(va, i);
                break;
              case 2:
                state.checksum += runner.load64(va);
                break;
              default:
                runner.load(va);
                break;
            }
            runner.compute(rng.below(16));
            if (i % 7000 == 6999) {
                const Addr at = lazy + pageAddr(rng.below(kLazyPages - 4));
                runner.streamRead(at, 3 * kPageSize + 200);
                runner.streamWrite(hot + 64, 5000);
            }
        }
    }
    StatRegistry registry;
    env.machine().registerStats(registry);
    state.cycles = model.cycles();
    state.seconds = model.seconds();
    state.faults = runner.faultsServiced();
    state.stats = registry.dumpJson();
    MemoryHierarchy &hier = env.machine().hier();
    for (Cache *cache : {&hier.l1i(), &hier.l1d(), &hier.l2(), &hier.llc()})
        state.caches += std::to_string(cache->hits()) + "/" +
                        std::to_string(cache->misses()) + " ";
    state.caches += std::to_string(hier.dram().rowHits()) + "/" +
                    std::to_string(hier.dram().rowMisses());
    state.trace = trace.records();
    state.streams = env.machine().streamsOpened();
    return state;
}

class RunnerTimingStream : public ::testing::TestWithParam<IsolationScheme>
{
};

TEST_P(RunnerTimingStream, MatchesInlineRun)
{
    const RunnerState streamed = runSeededStream(GetParam(), true);
    const RunnerState inl = runSeededStream(GetParam(), false);
    EXPECT_EQ(streamed.cycles, inl.cycles);
    EXPECT_EQ(std::bit_cast<uint64_t>(streamed.seconds),
              std::bit_cast<uint64_t>(inl.seconds));
    EXPECT_EQ(streamed.faults, inl.faults);
    EXPECT_EQ(streamed.checksum, inl.checksum);
    EXPECT_EQ(streamed.stats, inl.stats);
    EXPECT_EQ(streamed.caches, inl.caches);
    ASSERT_EQ(streamed.trace.size(), inl.trace.size());
    for (size_t i = 0; i < inl.trace.size(); ++i) {
        ASSERT_EQ(streamed.trace[i].va, inl.trace[i].va) << i;
        ASSERT_EQ(streamed.trace[i].type, inl.trace[i].type) << i;
    }
    // The stream really opened (and the inline run's batches, all
    // shorter than kSplitBatchMin, opened none), and demand paging
    // faulted mid-stream, also inside the streamed batches.
    EXPECT_EQ(streamed.streams, 1u);
    EXPECT_EQ(inl.streams, 0u);
    EXPECT_GT(streamed.faults, 100u);
    EXPECT_GT(streamed.trace.size(), 30000u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RunnerTimingStream,
    ::testing::Values(IsolationScheme::Pmp, IsolationScheme::PmpTable,
                      IsolationScheme::Hpmp),
    [](const ::testing::TestParamInfo<IsolationScheme> &tp) {
        return std::string(toString(tp.param));
    });

/** FNV-1a over the offsets (u64) chained over the neighbours (u32). */
uint64_t
csrDigest(const KronGraph &g)
{
    static_assert(std::endian::native == std::endian::little);
    std::vector<uint64_t> offsets(g.numVertices() + 1);
    for (uint64_t v = 0; v < offsets.size(); ++v)
        offsets[v] = g.peekOffset(v);
    std::vector<uint32_t> neighbors(g.numEdges());
    for (uint64_t e = 0; e < neighbors.size(); ++e)
        neighbors[e] = g.peekNeighbor(e);
    const uint64_t h = fnvBytes(offsets.data(), offsets.size() * 8);
    return fnvBytes(neighbors.data(), neighbors.size() * 4, h);
}

TEST(Gap, KronGraphCsrGolden)
{
    // Recorded from the per-vertex-vector builder this one replaced
    // (degree 8, seed 0x9a9): the CSR must be the same bytes.
    struct Golden
    {
        unsigned scale;
        uint64_t digest;
        uint64_t edges;
    };
    const Golden goldens[] = {{10, 0x1df862dc00bde722ULL, 6649},
                              {15, 0xc0b589a0cf0f6696ULL, 243929},
                              {18, 0x68ffe3804e4f45f9ULL, 2016617}};
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    CoreModel model = env.makeCoreModel();
    for (const Golden &gold : goldens) {
        SCOPED_TRACE(gold.scale);
        auto as = env.hostKernel().createAddressSpace();
        env.hostKernel().activate(*as, PrivMode::User);
        Runner runner(env.hostKernel(), *as, model);
        const KronGraph g(runner, gold.scale, 8, 0x9a9);

        ASSERT_EQ(g.numVertices(), 1ULL << gold.scale);
        EXPECT_EQ(g.numEdges(), gold.edges);
        EXPECT_EQ(csrDigest(g), gold.digest);

        EXPECT_EQ(g.peekOffset(0), 0u);
        EXPECT_EQ(g.peekOffset(g.numVertices()), g.numEdges());
        uint64_t degree_sum = 0;
        for (uint64_t u = 0; u < g.numVertices(); ++u) {
            const uint64_t begin = g.peekOffset(u);
            const uint64_t end = g.peekOffset(u + 1);
            ASSERT_LE(begin, end) << "vertex " << u;
            for (uint64_t e = begin; e < end; ++e) {
                ASSERT_NE(g.peekNeighbor(e), u) << "self-loop at " << u;
                if (e > begin) {
                    ASSERT_LT(g.peekNeighbor(e - 1), g.peekNeighbor(e))
                        << "vertex " << u;
                }
            }
            degree_sum += g.degreeOf(u);
        }
        EXPECT_EQ(degree_sum, g.numEdges());
    }
}

TEST(KronGraphDeath, RejectsBadParameters)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    auto as = env.hostKernel().createAddressSpace();
    env.hostKernel().activate(*as, PrivMode::User);
    CoreModel model = env.makeCoreModel();
    Runner runner(env.hostKernel(), *as, model);
    EXPECT_DEATH(KronGraph(runner, 0, 8), "scale 0 out of range");
    EXPECT_DEATH(KronGraph(runner, 33, 8), "scale 33 out of range");
    EXPECT_DEATH(KronGraph(runner, 4, 0), "degree must be at least 1");
}

TEST(Serverless, InvocationAndChain)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    FunctionModel fn = functionBenchApps()[4]; // Matmul (smallest)
    const double latency = invokeFunction(env, fn, 4000);
    EXPECT_GT(latency, 0.0);

    const double chain32 = runImageChain(env, 16);
    EXPECT_GT(chain32, 0.0);
}

TEST(Serverless, ColdStartCostsMoreUnderTable)
{
    FunctionModel fn = functionBenchApps()[4]; // Matmul
    TeeEnv pmp(cfg(IsolationScheme::Pmp));
    TeeEnv pmpt(cfg(IsolationScheme::PmpTable));
    const double t_pmp = invokeFunction(pmp, fn, 4000);
    const double t_pmpt = invokeFunction(pmpt, fn, 4000);
    EXPECT_GT(t_pmpt, t_pmp);
}

TEST(Redis, CommandsRunAndListWalkHurtsTableMost)
{
    TeeEnv pmp(cfg(IsolationScheme::Pmp));
    TeeEnv pmpt(cfg(IsolationScheme::PmpTable));
    RedisBench bench_pmp(pmp, 1024);
    RedisBench bench_pmpt(pmpt, 1024);

    const double rps_pmp = bench_pmp.run("LRANGE_100", 300);
    const double rps_pmpt = bench_pmpt.run("LRANGE_100", 300);
    EXPECT_GT(rps_pmp, rps_pmpt); // table mode loses throughput

    const double ping_pmp = bench_pmp.run("PING_INLINE", 300);
    const double ping_pmpt = bench_pmpt.run("PING_INLINE", 300);
    // PING carries almost no memory traffic: the gap must be smaller.
    const double lrange_gap = rps_pmp / rps_pmpt;
    const double ping_gap = ping_pmp / ping_pmpt;
    EXPECT_GT(lrange_gap, ping_gap * 0.98);
}

TEST(Redis, AllCommandsSmoke)
{
    TeeEnv env(cfg(IsolationScheme::Hpmp));
    RedisBench bench(env, 512);
    for (const auto &command : redisCommands())
        EXPECT_GT(bench.run(command, 40), 0.0) << command;
}

} // namespace
} // namespace hpmp
