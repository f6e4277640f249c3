/**
 * @file
 * Figure 3: the motivation preview (BOOM) — average and worst-case
 * slowdown of table-based isolation vs. segment-based isolation for
 * (a) single ld latency, (b) the GAP suite, (c) FunctionBench and
 * (d) Redis RPS, all normalized to the Segment (PMP) value.
 */

#include "bench/common.h"
#include "workloads/gap.h"
#include "workloads/redis.h"
#include "workloads/serverless.h"

namespace hpmp::bench
{
namespace
{

void
print(const char *what, double avg, double worst, const char *paper)
{
    row({what, "100.0", fmt("%.1f", avg), fmt("%.1f", worst)});
    std::printf("    paper: %s\n", paper);
}

} // namespace

void
fig03_preview(Report &)
{
    banner("Figure 3: table vs segment preview (BOOM), normalized to "
           "Segment = 100%");
    row({"", "Segment", "Table avg", "Table worst"});

    // (a) single ld latency across the TC states.
    {
        // Cycle-weighted across the TC states (tiny warm-hit
        // latencies would otherwise dominate a mean of ratios).
        uint64_t seg_total = 0, tab_total = 0;
        double worst = 0.0;
        for (int tc = 0; tc < 3; ++tc) {
            MicroEnv seg(boomParams(), IsolationScheme::Pmp);
            MicroEnv tab(boomParams(), IsolationScheme::PmpTable);
            uint64_t c[2];
            int i = 0;
            for (MicroEnv *env : {&seg, &tab}) {
                const Addr va = env->mapPages(1024)
                                + pageAddr(tc * 300);
                Machine &m = env->machine();
                m.coldReset();
                if (tc >= 1) { // warm caches
                    (void)m.access(va, AccessType::Load);
                    m.sfenceVma();
                }
                if (tc == 2) // warm neighbours too (TC3-like)
                    (void)m.access(va + kPageSize, AccessType::Load);
                c[i++] = m.access(va, AccessType::Load).cycles;
            }
            seg_total += c[0];
            tab_total += c[1];
            if (tc == 0)
                worst = double(c[1]) / double(c[0]);
        }
        print("ld latency", 100.0 * tab_total / seg_total,
              100.0 * worst, "+63.4% avg, +91.1% worst");
    }

    // (b) GAP.
    {
        TeeEnv seg(envConfig(CoreKind::Boom, IsolationScheme::Pmp));
        TeeEnv tab(envConfig(CoreKind::Boom, IsolationScheme::PmpTable));
        GapSuite s_seg(seg, 11, 8), s_tab(tab, 11, 8);
        double sum = 0.0, worst = 0.0;
        unsigned n = 0;
        for (const auto &kernel : gapKernels()) {
            const double ratio = s_tab.run(kernel) / s_seg.run(kernel);
            sum += ratio;
            worst = std::max(worst, ratio);
            ++n;
        }
        print("GAP", 100.0 * sum / n, 100.0 * worst,
              "+5.2% avg, +9.6% worst");
    }

    // (c) FunctionBench (serverless).
    {
        TeeEnv seg(envConfig(CoreKind::Boom, IsolationScheme::Pmp));
        TeeEnv tab(envConfig(CoreKind::Boom, IsolationScheme::PmpTable));
        double sum = 0.0, worst = 0.0;
        unsigned n = 0;
        for (const FunctionModel &fn : functionBenchApps()) {
            const double ratio =
                invokeFunction(tab, fn, 30000) /
                invokeFunction(seg, fn, 30000);
            sum += ratio;
            worst = std::max(worst, ratio);
            ++n;
        }
        print("Serverless", 100.0 * sum / n, 100.0 * worst,
              "up to +20.3% (latency)");
    }

    // (d) Redis RPS (lower = worse for table).
    {
        TeeEnv seg(envConfig(CoreKind::Boom, IsolationScheme::Pmp));
        TeeEnv tab(envConfig(CoreKind::Boom, IsolationScheme::PmpTable));
        RedisBench b_seg(seg, 2048), b_tab(tab, 2048);
        double sum = 0.0, worst = 1.0;
        unsigned n = 0;
        for (const std::string &command :
             {std::string("GET"), std::string("LPUSH"),
              std::string("LRANGE_100"), std::string("MSET")}) {
            const double ratio = b_tab.run(command, 1200) /
                                 b_seg.run(command, 1200);
            sum += ratio;
            worst = std::min(worst, ratio);
            ++n;
        }
        print("Redis RPS", 100.0 * sum / n, 100.0 * worst,
              "-16.0% avg, -31.8% worst (RPS)");
    }
}

} // namespace hpmp::bench
