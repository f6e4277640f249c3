/**
 * @file
 * Shared helpers for the paper figures run by bench_paper: fixed-width
 * table printing in the style of the paper's tables/figures, the one
 * JSON writer, the PMP/PMPT/HPMP environment triple, and the page-touch
 * microbenchmark of Figs. 15/16 on MicroEnv.
 */

#ifndef HPMP_BENCH_COMMON_H
#define HPMP_BENCH_COMMON_H

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/stats.h"
#include "core/machine.h"
#include "hpmp/isolation.h"
#include "workloads/env.h"
#include "workloads/micro_env.h"

namespace hpmp::bench
{

/**
 * The one JSON writer of the paper figures. A value is either JSON
 * text as is (a number the figure formatted, a registry dump) or an
 * object/array whose members keep insertion order. A container whose
 * members are all one-line text prints on one line; any other prints
 * one member per line, indented two spaces a level.
 */
class Json
{
  public:
    Json(std::string text) : text_(std::move(text)) {}
    static Json object() { return Json(Kind::Object); }
    static Json array() { return Json(Kind::Array); }

    /** Append a member; an array ignores the key. */
    Json &
    add(const std::string &key, Json value)
    {
        members_.emplace_back(key, std::move(value));
        return *this;
    }

    std::string
    str(const std::string &indent = "") const
    {
        if (kind_ == Kind::Text)
            return text_;
        bool flat = true;
        for (const auto &[key, value] : members_)
            flat = flat && value.kind_ == Kind::Text &&
                   value.text_.find('\n') == std::string::npos;
        const std::string inner = indent + "  ";
        std::string out = kind_ == Kind::Object ? "{" : "[";
        for (size_t i = 0; i < members_.size(); ++i) {
            out += i == 0 ? "" : ",";
            out += flat ? (i == 0 ? "" : " ") : "\n" + inner;
            if (kind_ == Kind::Object)
                out += "\"" + members_[i].first + "\": ";
            out += members_[i].second.str(inner);
        }
        if (!flat)
            out += "\n" + indent;
        return out + (kind_ == Kind::Object ? "}" : "]");
    }

  private:
    enum class Kind { Text, Object, Array };

    explicit Json(Kind kind) : kind_(kind) {}

    Kind kind_ = Kind::Text;
    std::string text_;
    std::vector<std::pair<std::string, Json>> members_;
};

/** A registry dump of anything with registerStats(StatRegistry &). */
template <class M>
Json
statsOf(M &m)
{
    StatRegistry registry;
    m.registerStats(registry);
    return registry.dumpJson();
}

/**
 * What a figure writes besides its stdout tables: its member of the
 * --json document, and fleet's windowed stats (--stats-series).
 */
struct Report
{
    Json json = Json::object();
    Json series = Json::object();
    bool sampleSeries = false;
    uint64_t seriesInterval = 50000;
};

/** Print a header like "=== Figure 10: ... ===". */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Fixed-width row printer: first column 14 wide, rest 12. */
inline void
row(const std::vector<std::string> &cells)
{
    for (size_t i = 0; i < cells.size(); ++i)
        std::printf(i == 0 ? "%-16s" : "  %12s", cells[i].c_str());
    std::printf("\n");
}

inline std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

inline std::string pct(double v) { return fmt("%.1f%%", v * 100.0); }

inline EnvConfig
envConfig(CoreKind core, IsolationScheme scheme)
{
    EnvConfig c;
    c.core = core;
    c.scheme = scheme;
    return c;
}

/** One TeeEnv per scheme the paper compares, in its column order. */
struct SchemeEnvs
{
    explicit SchemeEnvs(CoreKind core)
        : pmp(envConfig(core, IsolationScheme::Pmp)),
          pmpt(envConfig(core, IsolationScheme::PmpTable)),
          hpmp(envConfig(core, IsolationScheme::Hpmp))
    {
    }

    TeeEnv pmp, pmpt, hpmp;
};

/**
 * Total cycles of one load to each of 64 freshly mapped pages, caches
 * cold: the Fig. 15/16 fragmentation microbenchmark. A fragmented VA
 * strides so each access lands in a different L1/L0 table (8 GiB +
 * 4 KiB in the paper; Sv39 limits us to 2 GiB + 4 KiB, same effect:
 * no PT locality); `pa_stride` is in pages.
 */
inline uint64_t
touchPages(const MachineParams &params, IsolationScheme scheme,
           bool frag_va, uint64_t pa_stride)
{
    MicroEnv env(params, scheme);
    Machine &m = env.machine();

    constexpr unsigned kPages = 64;
    const uint64_t va_stride = frag_va ? (512 * 512 + 1) : 1;
    const Addr base = env.mapPages(kPages, va_stride, pa_stride);
    m.coldReset();

    uint64_t total = 0;
    for (unsigned i = 0; i < kPages; ++i) {
        const Addr va = base + pageAddr(uint64_t(i) * va_stride);
        const AccessOutcome out = m.access(va, AccessType::Load);
        if (!out.ok())
            fatal("page-touch access faulted: %s", toString(out.fault));
        total += out.cycles;
    }
    return total;
}

} // namespace hpmp::bench

#endif // HPMP_BENCH_COMMON_H
