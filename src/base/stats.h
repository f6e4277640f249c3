/**
 * @file
 * Statistics registry: counters, distributions, derived formulas.
 *
 * Components own named statistics grouped under a StatGroup; groups
 * can be dumped, reset between measurement phases (e.g. to discard
 * warm-up), and queried by name in tests. A StatRegistry collects
 * groups into one hierarchical namespace ("machine.tlb.l1_hits") and
 * renders the whole simulation's state as text or machine-readable
 * JSON, so benches and tools share one `--stats-json=FILE` pipeline
 * instead of re-plumbing counters by hand.
 */

#ifndef HPMP_BASE_STATS_H
#define HPMP_BASE_STATS_H

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hpmp
{

/** A monotonically increasing event counter, resettable between phases. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t v) { value_ += v; return *this; }

    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/**
 * A log2-bucketed histogram with exact count/sum/min/max (gem5's
 * Distribution, sized for cycle latencies). Bucket 0 holds the value
 * 0; bucket i >= 1 holds values in [2^(i-1), 2^i - 1]. Sampling is a
 * handful of ALU ops, cheap enough for per-memory-reference use.
 */
class Distribution
{
  public:
    /** Bucket 0 plus one bucket per possible bit width (1..64). */
    static constexpr unsigned kBuckets = 65;

    void
    sample(uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        ++buckets_[bucketOf(v)];
    }

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    /** Smallest/largest value sampled; 0 when empty. */
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

    uint64_t bucket(unsigned i) const { return i < kBuckets ? buckets_[i] : 0; }

    /** Bucket index a value lands in. */
    static unsigned
    bucketOf(uint64_t v)
    {
        return unsigned(std::bit_width(v));
    }

    /** Inclusive value range [low, high] of bucket i. */
    static uint64_t bucketLow(unsigned i) { return i <= 1 ? 0 : 1ull << (i - 1); }
    static uint64_t
    bucketHigh(unsigned i)
    {
        if (i == 0)
            return 0;
        if (i >= 64)
            return ~0ull;
        return (1ull << i) - 1;
    }

    /** Highest non-empty bucket index + 1 (for compact dumps). */
    unsigned usedBuckets() const;

    /**
     * Estimated p-th percentile (p in [0,1]) from the log2 buckets:
     * linear interpolation inside the bucket holding the target rank,
     * clamped to the exact [min, max] envelope. 0 when empty. Good to
     * a factor of the bucket width, which is what the p50/p99/p99.9
     * summary keys in --stats-json report.
     */
    double percentile(double p) const;

    void reset();

  private:
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = ~0ull;
    uint64_t max_ = 0;
    uint64_t buckets_[kBuckets] = {};
};

/**
 * A derived statistic computed on demand from other statistics (gem5's
 * Formula): hit rates, per-access averages, shares. Formulas are never
 * accumulated and never reset — they read whatever their inputs hold
 * at dump time.
 */
class Formula
{
  public:
    using Fn = std::function<double()>;

    Formula() = default;
    explicit Formula(Fn fn) : fn_(std::move(fn)) {}

    /** num / den, 0 when den is 0 (the hit-rate shape). */
    static Formula
    ratio(const Counter &num, const Counter &den)
    {
        return Formula([&num, &den]() {
            return den.value() ? double(num.value()) / double(den.value())
                               : 0.0;
        });
    }

    double value() const { return fn_ ? fn_() : 0.0; }

  private:
    Fn fn_;
};

/**
 * A named collection of statistics. Components register their
 * counters, distributions and formulas at construction; tests and
 * benches read them back by name.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a statistic under this group; the group does not own it. */
    void add(const std::string &stat_name, Counter *counter);
    void add(const std::string &stat_name, Distribution *dist);
    void add(const std::string &stat_name, Formula *formula);

    /** Value of a registered counter; 0 if the name is unknown. */
    uint64_t get(const std::string &stat_name) const;

    /** Value of a registered formula; 0.0 if the name is unknown. */
    double getFormula(const std::string &stat_name) const;

    /** A registered distribution, or nullptr. */
    const Distribution *getDist(const std::string &stat_name) const;

    /** Reset every registered counter/distribution (e.g. after warm-up). */
    void resetAll();

    /** Render "group.stat value" lines for all statistics. */
    std::string dump() const;

    /** Append this group's statistics as one JSON object member. */
    void dumpJson(std::string &out, const std::string &indent) const;

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::map<std::string, Counter *> counters_;
    std::map<std::string, Distribution *> dists_;
    std::map<std::string, Formula *> formulas_;
};

/**
 * A hierarchy of stat groups forming one dotted namespace. Groups are
 * either referenced (component-owned, e.g. Machine::stats()) or
 * created and owned here (makeGroup, for benches/tools). Text dump
 * order is registration order; JSON dumps sort groups by name (stats
 * within a group are already name-sorted) so two dumps of the same
 * state are byte-identical regardless of registration order — what
 * perfcheck baselines and golden tests diff against.
 */
class StatRegistry
{
  public:
    /** Register a component-owned group (not owned by the registry). */
    void add(StatGroup *group);

    /** Create (or return) a registry-owned group named `name`. */
    StatGroup &makeGroup(const std::string &name);

    /** The first registered group with this exact name, or nullptr. */
    StatGroup *find(const std::string &name) const;

    /** Reset every group (counters and distributions; formulas track). */
    void resetAll();

    /** Text dump: concatenated group dumps. */
    std::string dumpText() const;

    /**
     * JSON dump:
     *   { "groups": { "<group>": { "<stat>": N, ...,
     *                              "<dist>": {"count":..,"buckets":[..]},
     *                              "<formula>": X.Y } } }
     * Counter values are exact (emitted as integers); formulas and
     * distribution means are doubles.
     */
    std::string dumpJson() const;

    /** Write dumpJson() to a file. @return false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

  private:
    std::vector<StatGroup *> groups_;
    std::vector<std::unique_ptr<StatGroup>> owned_;
};

/**
 * Windowed telemetry time-series: snapshots a StatRegistry every K
 * simulated cycles into per-metric value columns, so a run's stats
 * become a trajectory ("tlb hit rate over time") instead of a single
 * end-state dump. Drives `--stats-series=FILE` in the tools/benches.
 *
 * Windows are capped; once full, further samples are counted as
 * dropped rather than silently discarded, mirroring TraceRing.
 */
class StatSampler
{
  public:
    explicit StatSampler(const StatRegistry &registry,
                         uint64_t intervalCycles,
                         size_t maxWindows = 4096);

    /** Snapshot every interval boundary crossed up to `nowCycles`. */
    void advanceTo(uint64_t nowCycles);

    /** Unconditionally snapshot at `nowCycles` (e.g. final state). */
    void sample(uint64_t nowCycles);

    uint64_t interval() const { return interval_; }
    size_t windows() const { return ticks_.size(); }
    uint64_t droppedWindows() const { return dropped_; }

    /** Value column for one flattened metric key (empty if unknown). */
    const std::vector<double> &series(const std::string &key) const;

    /**
     * Columnar JSON:
     *   { "interval": K, "dropped_windows": D, "ticks": [...],
     *     "series": { "<flat.key>": [v0, v1, ...], ... } }
     * Keys are the parseStatsJson flattening of the registry dump,
     * sorted; a key appearing mid-run is backfilled with zeros.
     */
    std::string dumpJson() const;

    /** Write dumpJson() to a file. @return false on I/O failure. */
    bool writeJsonFile(const std::string &path) const;

  private:
    const StatRegistry &registry_;
    uint64_t interval_;
    size_t maxWindows_;
    uint64_t nextTick_;
    uint64_t dropped_ = 0;
    std::vector<uint64_t> ticks_;
    std::map<std::string, std::vector<double>> series_;
};

/**
 * Minimal parser for the dumps produced by StatRegistry::dumpJson
 * (numbers, strings, objects, arrays — no escapes beyond \" and \\).
 * Flattens nested objects into dotted keys and arrays into ".N"
 * suffixes: {"groups":{"machine":{"walks":4}}} becomes
 * "groups.machine.walks" -> 4. Used by the round-trip tests and by
 * scripts that post-process --stats-json output.
 *
 * @return false on malformed input (out left partially filled).
 */
bool parseStatsJson(const std::string &text,
                    std::map<std::string, double> &out);

} // namespace hpmp

#endif // HPMP_BASE_STATS_H
