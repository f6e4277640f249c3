#include "verify/decision.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/logging.h"
#include "base/parse.h"

namespace hpmp::verify
{

const char *
toString(DecisionKind kind)
{
    switch (kind) {
      case DecisionKind::Sched: return "sched";
      case DecisionKind::Fault: return "fault";
      case DecisionKind::Inject: return "inject";
      case DecisionKind::Op: return "op";
    }
    return "?";
}

namespace
{

bool
kindFromString(const std::string &s, DecisionKind &out)
{
    for (const DecisionKind kind : {DecisionKind::Sched, DecisionKind::Fault,
                                    DecisionKind::Inject, DecisionKind::Op}) {
        if (s == toString(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

/** The rest of a tagged line, without the separating space. */
std::string
restOf(std::istringstream &ls)
{
    std::string rest;
    std::getline(ls, rest);
    if (!rest.empty() && rest[0] == ' ')
        rest.erase(0, 1);
    return rest;
}

/** The description travels on one line; fold newlines away. */
std::string
oneLine(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s)
        out.push_back(c == '\n' ? ';' : c);
    return out;
}

} // namespace

bool
parseProbability(const std::string &text, double &out)
{
    char *end = nullptr;
    const double p = std::strtod(text.c_str(), &end);
    // NaN fails both comparisons.
    if (text.empty() || *end != '\0' || !(p >= 0.0 && p <= 1.0))
        return false;
    out = p;
    return true;
}

unsigned
SeededChoices::pick(DecisionKind kind, uint64_t n, const std::string &label)
{
    const unsigned alt = unsigned(rng_.below(n));
    if (n > 1)
        made.push_back({kind, alt, unsigned(n), alt, label});
    return alt;
}

bool
SeededChoices::chance(DecisionKind kind, double p, const std::string &label)
{
    const bool taken = rng_.chance(p);
    made.push_back({kind, taken, 2, taken, label});
    return taken;
}

unsigned
PathController::pick(DecisionKind kind, uint64_t n, const std::string &label)
{
    panic_if(n == 0 || n > UINT32_MAX, "decision point with %llu alternatives",
             (unsigned long long)n);
    if (n > 1 && depthLimit != 0 && made.size() >= depthLimit)
        truncated = true;
    if (n == 1 || truncated)
        return 0;
    Decision d{kind, 0, unsigned(n), 0, label};
    if (!pastPrefix() && !divergence) {
        const Decision &f = (*forced)[made.size()];
        if (f.kind != kind || f.numAlts != n || f.altIndex >= n) {
            divergence = true;
            divergenceWhy = "decision #" + std::to_string(made.size()) +
                            ": trace has " + toString(f.kind) + " " +
                            std::to_string(f.altIndex) + "/" +
                            std::to_string(f.numAlts) + ", run offers " +
                            toString(kind) + " ?/" + std::to_string(n);
        } else {
            d.altIndex = d.value = f.altIndex;
        }
    }
    made.push_back(d);
    return d.altIndex;
}

unsigned
PathController::choose(DecisionKind kind, const std::vector<unsigned> &alts,
                       const std::string &label)
{
    const size_t recorded = made.size();
    const unsigned alt = alts[pick(kind, alts.size(), label)];
    if (made.size() != recorded)
        made.back().value = alt;
    return alt;
}

std::string
serializeTrace(const DecisionTrace &trace)
{
    std::ostringstream os;
    os << "# hpmp model_check counterexample v1\n";
    for (const std::string &line : trace.configLines)
        os << "config " << line << "\n";
    if (trace.violated) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "0x%016" PRIx64,
                      trace.violation.stateDigest);
        os << "violation kind=" << trace.violation.kind
           << " op=" << trace.violation.opIndex << " digest=" << buf
           << "\n";
        os << "violation_desc " << oneLine(trace.violation.description)
           << "\n";
    }
    for (const Decision &d : trace.decisions) {
        os << "d " << toString(d.kind) << " " << d.altIndex << "/"
           << d.numAlts;
        if (d.kind == DecisionKind::Sched)
            os << " h" << d.value;
        else if (!d.label.empty())
            os << " " << d.label;
        os << "\n";
    }
    return os.str();
}

bool
parseTrace(const std::string &text, DecisionTrace &out, std::string &error)
{
    out = DecisionTrace{};
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    auto bad = [&](const std::string &why) {
        error = "line " + std::to_string(lineno) + ": " + why;
        return false;
    };
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "config") {
            out.configLines.push_back(restOf(ls));
        } else if (tag == "violation") {
            out.violated = true;
            std::string field;
            while (ls >> field) {
                const auto eq = field.find('=');
                if (eq == std::string::npos)
                    continue;
                const std::string key = field.substr(0, eq);
                const std::string val = field.substr(eq + 1);
                uint64_t v = 0;
                if (key == "kind") {
                    out.violation.kind = val;
                } else if (key != "op" && key != "digest") {
                    continue;
                } else if (!parseUnsigned(val, v)) {
                    return bad("bad " + key + " '" + val + "'");
                } else if (key == "op") {
                    out.violation.opIndex = unsigned(v);
                } else {
                    out.violation.stateDigest = v;
                }
            }
        } else if (tag == "violation_desc") {
            out.violation.description = restOf(ls);
        } else if (tag == "d") {
            Decision d;
            std::string kind, alt, label, extra;
            if (!(ls >> kind >> alt) || !kindFromString(kind, d.kind))
                return bad("bad decision");
            const auto slash = alt.find('/');
            uint64_t index = 0, alts = 0, hart = 0;
            if (slash == std::string::npos ||
                !parseUnsigned(alt.substr(0, slash), index) ||
                !parseUnsigned(alt.substr(slash + 1), alts)) {
                return bad("bad alt index '" + alt + "'");
            }
            if (alts < 2 || index >= alts || alts > UINT32_MAX)
                return bad("alt out of range");
            d.altIndex = unsigned(index);
            d.numAlts = unsigned(alts);
            if (ls >> label && d.kind == DecisionKind::Sched) {
                if (label.size() < 2 || label[0] != 'h' ||
                    !parseUnsigned(label.substr(1), hart)) {
                    return bad("bad hart '" + label + "'");
                }
                d.value = unsigned(hart);
            } else {
                d.label = label;
            }
            if (ls >> extra)
                return bad("trailing junk '" + extra + "'");
            out.decisions.push_back(std::move(d));
        } else {
            return bad("unknown tag '" + tag + "'");
        }
    }
    return true;
}

} // namespace hpmp::verify
