/**
 * @file
 * Decision traces: the model checker's path representation.
 *
 * An explicit-state run of the bounded model (verify/harness.h) is a
 * sequence of *decisions* — points where the execution could have gone
 * more than one way:
 *
 *  - Sched:  which hart executes its next script op (pickHart-level);
 *  - Fault:  whether a registered FAULT_POINT site fires at this hit;
 *  - Inject: whether the interleave hook drives a victim-hart nested
 *            monitor call at this Posted/Delivered protocol step.
 *
 * A Decision records the alternative taken *and* how many alternatives
 * existed, so the DFS enumerator can backtrack (advance the deepest
 * decision with unexplored alternatives) and a violating path can be
 * serialized, minimized and replayed bit-exactly: re-running the same
 * bounded config under the same forced decisions is deterministic by
 * construction — there is no other nondeterminism source left.
 *
 * The on-disk format is line-oriented text (one `config` line per
 * knob, one `violation` header, one `d` line per decision) so CI can
 * archive counterexamples as readable artifacts.
 */

#ifndef HPMP_VERIFY_DECISION_H
#define HPMP_VERIFY_DECISION_H

#include <cstdint>
#include <string>
#include <vector>

namespace hpmp::verify
{

enum class DecisionKind : uint8_t { Sched, Fault, Inject };

const char *toString(DecisionKind kind);

/** One branch point of a run, with the alternative taken. */
struct Decision
{
    DecisionKind kind = DecisionKind::Sched;
    unsigned altIndex = 0; //!< index of the alternative taken
    unsigned numAlts = 1;  //!< alternatives available at this point
    /** Resolved choice: Sched = hart id, Fault/Inject = 0/1. */
    unsigned value = 0;
    /** Fault: site name; Inject: "<Phase>@h<dst>"; Sched: empty. */
    std::string label;
};

/** What a violating path tripped over. */
struct Violation
{
    std::string kind;        //!< stable id ("stale_checker", ...)
    std::string description; //!< human-readable account
    unsigned opIndex = 0;    //!< script op during which it tripped
    /**
     * Canonical state key at detection (monitor digest + per-hart
     * digests + script positions). A replay reproduces the violation
     * bit-exactly iff its key equals this one.
     */
    uint64_t stateDigest = 0;
};

/** A complete decision path plus its outcome, serializable. */
struct DecisionTrace
{
    std::vector<Decision> decisions;
    bool violated = false;
    Violation violation;
    /** "key=value" echo of the ModelConfig that produced the path. */
    std::vector<std::string> configLines;
};

/** Serialize to the line-oriented counterexample format. */
std::string serializeTrace(const DecisionTrace &trace);

/** Parse a serialized trace. @return false (and set error) on junk,
 *  including a number with trailing junk. */
bool parseTrace(const std::string &text, DecisionTrace &out,
                std::string &error);

/**
 * Parse a whole unsigned number — decimal, or hex with a 0x prefix.
 * @return false on an empty string, a sign, overflow or trailing junk.
 */
bool parseUnsigned(const std::string &text, uint64_t &out);

} // namespace hpmp::verify

#endif // HPMP_VERIFY_DECISION_H
