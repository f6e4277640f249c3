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
 *            monitor call at this Posted/Delivered protocol step;
 *  - Op:     which operation, operand or placement a seeded chaos
 *            campaign draws (verify/chaos_engine.h).
 *
 * A Decision records the alternative taken *and* how many alternatives
 * existed, so the DFS enumerator can backtrack (advance the deepest
 * decision with unexplored alternatives) and a violating path can be
 * serialized, minimized and replayed bit-exactly: re-running the same
 * bounded config under the same forced decisions is deterministic by
 * construction — there is no other nondeterminism source left.
 *
 * A scenario reads every decision through one interface, Choices,
 * which has two implementations: SeededChoices draws from a seeded
 * Rng and records what it drew (a chaos campaign), PathController
 * replays a forced prefix and takes defaults beyond it (the model
 * checker's DFS, and the replay and minimization of any trace).
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

#include "base/rng.h"

namespace hpmp::verify
{

enum class DecisionKind : uint8_t { Sched, Fault, Inject, Op };

const char *toString(DecisionKind kind);

/** One branch point of a run, with the alternative taken. */
struct Decision
{
    DecisionKind kind = DecisionKind::Sched;
    unsigned altIndex = 0; //!< index of the alternative taken
    unsigned numAlts = 1;  //!< alternatives available at this point
    /** Resolved choice: Sched = hart id, else the alternative's value. */
    unsigned value = 0;
    /** Fault: site name; Inject: "<Phase>@h<dst>"; Op: the draw's name;
     *  Sched: empty. One token, no spaces. */
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
    /** "key=value" echo of the CampaignConfig that produced the path. */
    std::vector<std::string> configLines;
};

/** Serialize to the line-oriented counterexample format. */
std::string serializeTrace(const DecisionTrace &trace);

/** Parse a serialized trace. @return false (and set error) on junk,
 *  including a number with trailing junk. */
bool parseTrace(const std::string &text, DecisionTrace &out,
                std::string &error);

/** Parse a whole probability in [0, 1]. @return false on junk, NaN or
 *  a value outside the interval. */
bool parseProbability(const std::string &text, double &out);

/**
 * The only source of nondeterminism a scenario reads. A point with one
 * alternative is no decision and is not recorded.
 */
class Choices
{
  public:
    virtual ~Choices() = default;
    /** One of `n` alternatives; 0 is the default. */
    virtual unsigned pick(DecisionKind kind, uint64_t n,
                          const std::string &label) = 0;
    /** A branch taken with probability `p` (alternative 1). */
    virtual bool chance(DecisionKind kind, double p,
                        const std::string &label) = 0;
    /**
     * A value that is data, not a branch (a nonce): uniform in
     * [0, bound), all 64 bits when bound is 0. Never recorded, so a
     * scenario must not branch on it.
     */
    virtual uint64_t data(uint64_t bound) = 0;
};

/**
 * Draws from a seeded Rng — the same below()/chance()/next() call per
 * draw, in order — and records each draw as a Decision, so a failing
 * run becomes a trace that PathController replays bit-exactly.
 */
class SeededChoices : public Choices
{
  public:
    explicit SeededChoices(uint64_t seed) : rng_(seed) {}

    unsigned pick(DecisionKind kind, uint64_t n,
                  const std::string &label) override;
    bool chance(DecisionKind kind, double p,
                const std::string &label) override;
    uint64_t data(uint64_t bound) override
    {
        return bound ? rng_.below(bound) : rng_.next();
    }

    std::vector<Decision> made; //!< every recorded draw, in order

  private:
    Rng rng_;
};

/**
 * Forced-prefix DFS: replays `forced` and takes the default beyond it,
 * recording every branch point, so the enumerator can backtrack. Also
 * holds a model-check path's branch budgets, which the scenario spends.
 */
struct PathController : Choices
{
    const std::vector<Decision> *forced = nullptr;
    std::vector<Decision> made;
    unsigned depthLimit = 0; //!< 0 = unbounded
    unsigned faultBudget = 0;
    unsigned injectBudget = 0;
    unsigned faultsFired = 0;
    unsigned injectsDone = 0;
    bool truncated = false;
    bool divergence = false;
    std::string divergenceWhy;

    bool pastPrefix() const
    {
        return !forced || made.size() >= forced->size();
    }

    /**
     * Record one branch point over `alts` and return the alternative
     * to take: the forced prefix's choice while replaying, the default
     * (alts[0]) beyond it.
     */
    unsigned choose(DecisionKind kind, const std::vector<unsigned> &alts,
                    const std::string &label);

    unsigned pick(DecisionKind kind, uint64_t n,
                  const std::string &label) override;
    bool chance(DecisionKind kind, double, const std::string &label) override
    {
        return pick(kind, 2, label) == 1;
    }
    /** Forced runs draw no data: always 0. */
    uint64_t data(uint64_t) override { return 0; }
};

} // namespace hpmp::verify

#endif // HPMP_VERIFY_DECISION_H
