#include "sim/report.h"

#include <algorithm>
#include <cstdio>

namespace perfbench
{

namespace
{

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

template <class T, class Fn>
std::string
array(const std::vector<T> &items, Fn &&render)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + render(items[i]);
    return out + "]";
}

template <class T, class Fn>
std::string
object(const std::map<std::string, T> &items, Fn &&render)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : items) {
        out += (first ? "" : ", ") + quote(key) + ": " + render(value);
        first = false;
    }
    return out + "}";
}

std::string
integer(uint64_t v)
{
    return std::to_string(v);
}

} // namespace

void
Report::addMemCounters(const std::string &scheme, hpmp::Machine &m)
{
    hpmp::MemoryHierarchy &h = m.hier();
    auto &c = memCounters[scheme];
    c["l1d_hits"] += h.l1d().hits();
    c["l1d_misses"] += h.l1d().misses();
    c["l2_hits"] += h.l2().hits();
    c["l2_misses"] += h.l2().misses();
    c["llc_hits"] += h.llc().hits();
    c["llc_misses"] += h.llc().misses();
    c["dram_row_hits"] += h.dram().rowHits();
    c["dram_row_misses"] += h.dram().rowMisses();
}

std::string
Report::toJson() const
{
    std::string sim = "{\n    \"schemes\": " + array(schemes, quote);
    sim += ",\n    \"cells\": " + array(cells, [](const Cell &c) {
        return "{\"name\": " + quote(c.name) + ", \"scheme\": " +
               quote(c.scheme) + ", \"cost\": " + number(c.cost) +
               ", \"accesses\": " + integer(c.accesses) + "}";
    });
    sim += ",\n    \"checks\": " + array(checks, [](const Check &c) {
        return "{\"name\": " + quote(c.name) + ", \"ok\": " +
               (c.ok ? "true" : "false") + ", \"detail\": " +
               quote(c.detail) + "}";
    });
    sim += ",\n    \"mem\": " + object(memCounters, [](const auto &m) {
        return object(m, integer);
    });
    sim += ",\n    \"series\": " + object(simSeries, [](const auto &v) {
        return array(v, integer);
    });
    sim += ",\n    \"scalars\": " + object(simScalars, number);
    sim += ",\n    \"stats\": " +
           object(statsJson, [](const std::string &s) { return s; });
    sim += "\n  }";

    std::string host = "{\n    \"setup_s\": " + array(setupSeconds, number);
    host += ",\n    \"setup_ref\": " + array(setupRef, [](const auto &r) {
        return "[" + integer(r.first) + ", " + integer(r.second) + "]";
    });
    host += ",\n    \"env_build_s\": " + array(envBuildSeconds, number);
    host += ",\n    \"input_build_s\": " + array(inputBuildSeconds, number);
    host += ",\n    \"rounds\": " + array(rounds, [](const Round &r) {
        return "{\"start\": " + number(r.start) +
               ", \"host_s\": " + number(r.hostSeconds) +
               ", \"accesses\": " + integer(r.accesses) +
               ", \"traced\": " + (r.traced ? "true" : "false") +
               ", \"ref\": [" + integer(r.refBegin) + ", " +
               integer(r.refEnd) + "]}";
    });
    host += ",\n    \"reference_target_s\": " + number(kReferenceSeconds);
    host += ",\n    \"reference_s\": " + array(referenceSeconds, number);
    host += ",\n    \"reference_at\": " + array(referenceAt, number);
    host += ",\n    \"scalars\": " + object(hostScalars, number);
    host += ",\n    \"peak_rss_kb\": " + integer(peakRssKb);
    host += ",\n    \"spans\": " + integer(spans);
    host += ",\n    \"spans_dropped\": " + integer(spansDropped);
    host += "\n  }";

    return "{\n  \"workload\": " + quote(workload) +
           ",\n  \"seed\": " + integer(seed) + ",\n  \"sim\": " + sim +
           ",\n  \"host\": " + host + "\n}\n";
}

double
referenceKernel(Report &report)
{
    // Random read-modify-writes over 8 MiB: memory-bound like the
    // simulator, so it slows down with it when neighbours load the
    // shared caches and memory (a compute-bound kernel does not). An
    // untimed sweep first brings the table in, so the timed part does
    // not depend on what the caches held before.
    static std::vector<uint64_t> table(1u << 20, 1);
    report.referenceAt.push_back(runClock());
    for (uint64_t &e : table)
        e += 1;
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
    for (uint64_t i = 0; i < 1500000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t &e = table[x & (table.size() - 1)];
        acc += e;
        e = acc ^ x;
        if (acc & 1)
            acc += i;
    }
    asm volatile("" : : "r"(acc)); // keep the loop
    report.referenceSeconds.push_back(since(t0));
    return report.referenceSeconds.back();
}

void
runRounds(RunContext &ctx, unsigned min_rounds, unsigned max_rounds,
          const std::function<uint64_t(unsigned)> &round)
{
    const auto t0 = std::chrono::steady_clock::now();
    size_t roundSpans = 0; // most spans one traced round has needed
    referenceKernel(ctx.report);
    for (unsigned i = 0; i < max_rounds; ++i) {
        if (i >= min_rounds && since(t0) >= ctx.seconds)
            break;
        const size_t before = ctx.spans.size();
        const bool traced = ctx.trace && i % 2 == 1 &&
                            before + roundSpans <= SpanRecorder::kMaxSpans;
        ctx.spans.setEnabled(traced);
        const std::vector<double> &ref = ctx.report.referenceSeconds;
        const size_t refBegin = ref.size() - 1;
        const double start = runClock();
        const auto r0 = std::chrono::steady_clock::now();
        const uint64_t accesses = [&] {
            Span span(ctx.spans, "bench.round");
            return round(i);
        }();
        // Reference samples a workload took inside the round are not
        // part of its host time.
        double seconds = since(r0);
        for (size_t k = refBegin + 1; k < ref.size(); ++k)
            seconds -= ref[k];
        referenceKernel(ctx.report);
        ctx.report.rounds.push_back({start, seconds, accesses, traced,
                                     refBegin,
                                     ctx.report.referenceSeconds.size()});
        ctx.spans.setEnabled(false);
        roundSpans = std::max(roundSpans, ctx.spans.size() - before);
    }
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = std::fputs("{\"traceEvents\": [\n", f) >= 0;
    for (size_t i = 0; i < spans_.size() && ok; ++i) {
        const Span &s = spans_[i];
        const std::string name = s.name;
        const std::string layer = name.substr(0, name.find('.'));
        ok = std::fprintf(f,
                          "%s{\"name\": \"%s\", \"cat\": \"%s\", "
                          "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                          "\"pid\": 1, \"tid\": 1, \"args\": {\"id\": %zu, "
                          "\"parent\": %ld, \"trace\": %llu}}",
                          i ? ",\n" : "", s.name, layer.c_str(), s.startUs,
                          s.endUs - s.startUs, i, s.parent,
                          (unsigned long long)s.trace) > 0;
    }
    ok = ok && std::fputs("\n]}\n", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
