#include "verify/enumerator.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "base/logging.h"
#include "base/trace.h"

namespace hpmp::verify
{

CheckResult
ModelChecker::run(unsigned maxViolations, uint64_t maxPaths)
{
    CheckResult result;
    StateSet visited;
    std::vector<Decision> prefix;
    bool stoppedEarly = false;

    while (true) {
        const RunOutcome out = runPath(config_, &prefix, &visited);
        ++result.stats.paths;
        result.stats.transitions += out.newTransitions;
        result.stats.sleepMergedAlts += out.sleepMergedAlts;
        if (out.truncated)
            ++result.stats.truncatedPaths;
        if (out.deduped)
            ++result.stats.dedupStops;
        // The forced prefix is this run's own earlier decisions; a
        // misalignment means the model leaked nondeterminism past the
        // three taps — the search would silently skip subtrees.
        panic_if(out.divergence, "DFS replay diverged: %s",
                 out.divergenceWhy.c_str());

        if (out.violated) {
            ++result.stats.violations;
            DecisionTrace ce = minimize({out.decisions, true, out.violation,
                                         config_.configLines()});
            result.counterexamples.push_back(std::move(ce));
            if (maxViolations != 0 &&
                result.stats.violations >= maxViolations) {
                stoppedEarly = true;
                break;
            }
        }
        if (maxPaths != 0 && result.stats.paths >= maxPaths) {
            stoppedEarly = true;
            break;
        }

        // Backtrack: deepest decision with an unexplored alternative.
        size_t j = out.decisions.size();
        while (j > 0 &&
               out.decisions[j - 1].altIndex + 1 >=
                   out.decisions[j - 1].numAlts)
            --j;
        if (j == 0)
            break; // tree exhausted
        prefix.assign(out.decisions.begin(),
                      out.decisions.begin() + j);
        ++prefix[j - 1].altIndex;
    }

    result.stats.states = visited.size();
    result.stats.minimizeRuns = minimizeRuns_;
    result.exhaustive =
        !stoppedEarly && result.stats.truncatedPaths == 0;
    return result;
}

DecisionTrace
ModelChecker::minimize(const DecisionTrace &trace)
{
    if (!trace.violated)
        return trace;
    DecisionTrace cur = trace;

    auto accept = [&](const std::vector<Decision> &forced,
                      DecisionTrace &into) {
        ++minimizeRuns_;
        const RunOutcome out = runPath(config_, &forced, nullptr);
        if (!out.violated || out.violation.kind != cur.violation.kind)
            return false;
        into.decisions = out.decisions;
        into.violation = out.violation;
        return true;
    };

    for (unsigned round = 0; round < 8; ++round) {
        bool changed = false;
        for (size_t i = 0; i < cur.decisions.size(); ++i) {
            if (cur.decisions[i].altIndex == 0)
                continue;
            // First try flipping just this decision to its default,
            // keeping the suffix (later decisions may still line up).
            std::vector<Decision> cand = cur.decisions;
            cand[i].altIndex = 0;
            if (accept(cand, cur)) {
                changed = true;
                continue;
            }
            // Fallback: cut the path right after the flip and let
            // defaults carry the rest of the run.
            cand.resize(i + 1);
            if (accept(cand, cur))
                changed = true;
        }
        // Trailing defaults need no rerun to drop: a shorter forced
        // prefix continues with defaults, which is the same path.
        while (!cur.decisions.empty() &&
               cur.decisions.back().altIndex == 0)
            cur.decisions.pop_back();
        if (!changed)
            break;
    }
    return cur;
}

ReplayReport
ModelChecker::replay(const DecisionTrace &trace)
{
    ReplayReport report;
    report.outcome = runPath(config_, &trace.decisions, nullptr);
    const RunOutcome &out = report.outcome;
    if (out.divergence) {
        report.detail = "trace diverged from the run: " +
                        out.divergenceWhy;
        return report;
    }
    if (!out.violated) {
        report.detail = "replay found no violation";
        return report;
    }
    if (out.violation.kind != trace.violation.kind) {
        report.detail = "replay violated '" + out.violation.kind +
                        "', trace recorded '" + trace.violation.kind +
                        "'";
        return report;
    }
    report.reproduced = true;
    if (trace.violation.stateDigest != 0 &&
        out.violation.stateDigest != trace.violation.stateDigest) {
        report.detail = "violation kind matches but the state digest "
                        "differs (not bit-exact)";
        return report;
    }
    report.bitExact = true;
    return report;
}

ReplayReport
ModelChecker::replayWithChromeDump(const DecisionTrace &trace,
                                   const std::string &jsonPath)
{
    Tracer &tracer = Tracer::instance();
    tracer.setOutput(nullptr); // spans only; no DPRINTF spew
    tracer.enable(TraceFlag::Monitor);
    tracer.enable(TraceFlag::Fault);
    tracer.ring().setCapacity(16384);
    tracer.ring().clear();

    ReplayReport report = replay(trace);

    // The ring's JSON is well-formed (empty) in tracing-off builds too.
    std::ofstream out(jsonPath);
    out << tracer.ring().dumpChromeJson();
    if (!out) {
        report.detail += std::string(report.detail.empty() ? "" : "; ") +
                         "chrome trace dump failed";
    }
    tracer.disable(TraceFlag::Monitor);
    tracer.disable(TraceFlag::Fault);
    tracer.ring().setCapacity(0);
    tracer.setOutput(stderr);
    return report;
}

} // namespace hpmp::verify
