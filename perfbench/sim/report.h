/**
 * @file
 * What one benchmark run measured, and the workload entry points.
 *
 * The driver separates simulated results, which repeat exactly for a
 * seed, from host measurements, which do not. run.py derives every
 * reported metric from this record and digests the simulated part, so
 * a change that only speeds up the simulator must leave that digest
 * unchanged.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/machine.h"
#include "sim/spans.h"

namespace perfbench
{

/** Seconds since `t0` on the steady clock. */
inline double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Seconds since the process started timing (first call). */
inline double
runClock()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return since(epoch);
}

/** One measured cell (kernel, op or stream) under one scheme. */
struct Cell
{
    std::string name;
    std::string scheme;
    double cost = 0.0;     //!< simulated cost in the workload's unit
    uint64_t accesses = 0; //!< simulated memory accesses of the cell
};

/** Host time of one measured round. */
struct Round
{
    double start = 0.0; //!< runClock() when the round began
    double hostSeconds = 0.0;
    uint64_t accesses = 0;
    bool traced = false;
    /** Report::referenceSeconds[refBegin, refEnd) bracket this round. */
    size_t refBegin = 0;
    size_t refEnd = 0;
};

/** One correctness check. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

struct Report
{
    std::string workload;
    uint64_t seed = 0;
    std::vector<std::string> schemes;

    // Simulated: identical for a given seed.
    std::vector<Cell> cells;
    std::map<std::string, std::string> statsJson; //!< scheme -> registry dump
    std::map<std::string, std::map<std::string, uint64_t>> memCounters;
    std::map<std::string, std::vector<uint64_t>> simSeries;
    std::map<std::string, double> simScalars;
    std::vector<Check> checks;

    // Host: varies run to run.
    std::vector<double> setupSeconds;      //!< one sample per set-up
    /** referenceSeconds range bracketing each set-up sample. */
    std::vector<std::pair<size_t, size_t>> setupRef;
    std::vector<double> envBuildSeconds;   //!< part of each set-up
    std::vector<double> inputBuildSeconds; //!< part of each set-up
    std::vector<Round> rounds;
    std::vector<double> referenceSeconds; //!< reference kernel samples
    std::vector<double> referenceAt;      //!< runClock() at each start
    std::map<std::string, double> hostScalars;
    uint64_t peakRssKb = 0;
    uint64_t spans = 0;
    uint64_t spansDropped = 0;

    void
    check(const std::string &name, bool ok, const std::string &detail = "")
    {
        checks.push_back({name, ok, detail});
    }

    /** Accumulate a host-side quantity (seconds, call counts, ...). */
    void addHost(const std::string &key, double v) { hostScalars[key] += v; }

    /** Record the cache/DRAM counters of a machine under `scheme`. */
    void addMemCounters(const std::string &scheme, hpmp::Machine &m);

    std::string toJson() const;
};

/**
 * Host-speed reference. On a shared host the speed drifts by up to
 * 1.5x over tens of seconds as other tenants load the shared caches and
 * memory (measured on a 4-vCPU Xeon VM), which swamps run-to-run
 * comparisons of host time. The driver runs a
 * fixed, memory-bound reference kernel before and after every measured
 * round and set-up, and between the long cells of `gap`. run.py scales
 * each stretch of host time between two kernel samples by
 * kReferenceSeconds / (their mean time), so it reads as if the kernel
 * had taken kReferenceSeconds.
 */
inline constexpr double kReferenceSeconds = 0.02;

/** Run the reference kernel once; records and returns its seconds. */
double referenceKernel(Report &report);

/** Everything a workload needs from the command line. */
struct RunContext
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    SpanRecorder spans;
    Report report;
};

/**
 * Rounds every run makes at least: round 0 is a warm-up for host timing
 * (it records the simulated results), then one untraced and, in a
 * traced run, one traced round.
 */
inline constexpr unsigned kMinRounds = 3;

/**
 * Run measured rounds until ctx.seconds have passed: at least
 * `min_rounds` (>= kMinRounds), at most `max_rounds`. `round(index)`
 * performs one round and returns the simulated accesses it made.
 * Simulated results come from a fixed number of leading rounds, so they
 * never depend on host speed; tracing does not change them either. In a
 * traced run the rounds alternate untraced / traced until the span
 * budget could no longer hold another whole round.
 */
void runRounds(RunContext &ctx, unsigned min_rounds, unsigned max_rounds,
               const std::function<uint64_t(unsigned)> &round);

/**
 * Time one set-up; records setup/env/input samples, bracketed by
 * reference kernel samples like a round.
 */
class SetupTimer
{
  public:
    explicit SetupTimer(Report &r)
        : report_(r), refBegin_(r.referenceSeconds.size())
    {
        referenceKernel(r);
        t0_ = std::chrono::steady_clock::now();
    }

    void envBuilt() { envEnd_ = since(t0_); }

    void
    done()
    {
        const double total = since(t0_);
        referenceKernel(report_);
        report_.setupSeconds.push_back(total);
        report_.setupRef.push_back(
            {refBegin_, report_.referenceSeconds.size()});
        report_.envBuildSeconds.push_back(envEnd_);
        report_.inputBuildSeconds.push_back(total - envEnd_);
    }

  private:
    Report &report_;
    size_t refBegin_;
    std::chrono::steady_clock::time_point t0_;
    double envEnd_ = 0.0;
};

/** The three host schemes, in the order every workload runs them. */
struct SchemeDef
{
    hpmp::IsolationScheme scheme;
    const char *name;
};
inline constexpr SchemeDef kSchemes[] = {
    {hpmp::IsolationScheme::Pmp, "pmp"},
    {hpmp::IsolationScheme::PmpTable, "pmpt"},
    {hpmp::IsolationScheme::Hpmp, "hpmp"},
};

/** Cold-walk reference probes of Fig. 2 (Sv39) and Fig. 8 (3D walk). */
void probeSv39(Report &report);
void probeVirt(Report &report);

void runGap(RunContext &ctx);
void runLmbench(RunContext &ctx);
void runVirt(RunContext &ctx);
void runTenants(RunContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
