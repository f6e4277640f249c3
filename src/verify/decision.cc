#include "verify/decision.h"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace hpmp::verify
{

const char *
toString(DecisionKind kind)
{
    switch (kind) {
      case DecisionKind::Sched: return "sched";
      case DecisionKind::Fault: return "fault";
      case DecisionKind::Inject: return "inject";
    }
    return "?";
}

namespace
{

bool
kindFromString(const std::string &s, DecisionKind &out)
{
    for (const DecisionKind kind :
         {DecisionKind::Sched, DecisionKind::Fault, DecisionKind::Inject}) {
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
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 0);
    return errno == 0 && *end == '\0';
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
