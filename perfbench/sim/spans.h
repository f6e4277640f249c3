/**
 * @file
 * Benchmark-local span recorder for the traced run.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a simulator layer; the layer is the span name's first dotted
 * component ("monitor.switchTo" belongs to "monitor"). Each span has a
 * start, an end, the span that was open when it began (its parent) and
 * a trace id, so one tenant request is one trace. Spans stay in memory
 * and are written as chrome://tracing JSON when the run ends. The
 * recorder is deliberately separate from the simulator's process-wide
 * Tracer: the benchmark must keep working while that is refactored.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

class SpanRecorder
{
  public:
    /** Spans kept at most; later ones are counted as dropped. */
    static constexpr size_t kMaxSpans = 150000;

    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Recording is off until enabled; disabled spans cost a branch. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Trace id stamped on spans opened from now on (0 = none). */
    void setTrace(uint64_t trace) { trace_ = trace; }

    /** Open a span; returns its index, or -1 when not recorded. */
    long
    begin(const char *name)
    {
        if (!enabled_)
            return -1;
        if (spans_.size() >= kMaxSpans) {
            ++dropped_;
            return -1;
        }
        const long parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, nowUs(), 0.0, parent, trace_});
        open_.push_back(long(spans_.size() - 1));
        return open_.back();
    }

    void
    end(long index)
    {
        if (index < 0)
            return;
        spans_[size_t(index)].endUs = nowUs();
        open_.pop_back();
    }

    size_t size() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Write every span as chrome://tracing JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        long parent;
        uint64_t trace;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::chrono::steady_clock::time_point epoch_;
    bool enabled_ = false;
    uint64_t trace_ = 0;
    uint64_t dropped_ = 0;
    std::vector<Span> spans_;
    std::vector<long> open_;
};

/** RAII span: opened at construction, closed at scope exit. */
class Span
{
  public:
    Span(SpanRecorder &rec, const char *name)
        : rec_(rec), index_(rec.begin(name))
    {}
    ~Span() { rec_.end(index_); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder &rec_;
    long index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
