/**
 * @file
 * Model-checker tests (DESIGN.md §14): the bounded-exhaustive
 * enumerator proves the default 2-hart/2-domain configuration clean —
 * every interleaving, every branchable fault, every mid-window
 * nested-call probe — and the seeded fence-skipping mutation breaks
 * it. Counterexamples must minimize, serialize, parse back, and
 * replay bit-exactly (same violation kind at the same canonical state
 * digest).
 */

#include <gtest/gtest.h>

#include "verify/decision.h"
#include "verify/enumerator.h"
#include "verify/harness.h"

namespace hpmp::verify
{
namespace
{

ModelConfig
smallConfig()
{
    // Interleaving-only (no fault or inject branching): small enough
    // to enumerate in milliseconds, still multi-path.
    ModelConfig cfg;
    cfg.faultBranch = false;
    cfg.maxInjects = 0;
    return cfg;
}

TEST(ModelCheckTest, InterleavingsAloneAreCleanAndExhaustive)
{
    ModelChecker checker(smallConfig());
    const CheckResult result = checker.run();
    EXPECT_TRUE(result.exhaustive);
    EXPECT_EQ(result.stats.violations, 0u);
    EXPECT_TRUE(result.counterexamples.empty());
    // More than one interleaving exists, and the sched-merge (POR)
    // actually pruned commuting access-op alternatives.
    EXPECT_GT(result.stats.paths, 1u);
    EXPECT_GT(result.stats.states, 0u);
    EXPECT_GT(result.stats.sleepMergedAlts, 0u);
}

TEST(ModelCheckTest, FullDefaultConfigurationIsClean)
{
    // The headline guarantee: fault branching and nested-call probes
    // on, the whole tree enumerated, zero violations.
    ModelChecker checker(ModelConfig{});
    const CheckResult result = checker.run();
    EXPECT_TRUE(result.exhaustive);
    EXPECT_EQ(result.stats.violations, 0u);
    EXPECT_GT(result.stats.paths, 100u);
    EXPECT_GT(result.stats.transitions, result.stats.states);
    EXPECT_EQ(result.stats.truncatedPaths, 0u);
}

TEST(ModelCheckTest, EnumerationIsDeterministic)
{
    ModelChecker a(smallConfig()), b(smallConfig());
    const CheckResult ra = a.run(), rb = b.run();
    EXPECT_EQ(ra.stats.paths, rb.stats.paths);
    EXPECT_EQ(ra.stats.states, rb.stats.states);
    EXPECT_EQ(ra.stats.transitions, rb.stats.transitions);
    EXPECT_EQ(ra.stats.sleepMergedAlts, rb.stats.sleepMergedAlts);
}

TEST(ModelCheckTest, DepthBoundTruncatesInsteadOfLying)
{
    ModelConfig cfg = smallConfig();
    cfg.depthLimit = 2;
    ModelChecker checker(cfg);
    const CheckResult result = checker.run();
    EXPECT_FALSE(result.exhaustive);
    EXPECT_GT(result.stats.truncatedPaths, 0u);
}

TEST(ModelCheckTest, SkippedFenceMutationIsCaught)
{
    // Sabotage the second shootdown (the setPerm revoke): the sibling
    // hart keeps its pre-revoke HPMP state past the ack. The checker
    // must find a violation, and its counterexample must replay.
    ModelConfig cfg;
    cfg.mutateSkipFenceNth = 2;
    ModelChecker checker(cfg);
    const CheckResult result = checker.run(/*maxViolations=*/1);
    ASSERT_EQ(result.counterexamples.size(), 1u);
    EXPECT_GE(result.stats.violations, 1u);

    const DecisionTrace &ce = result.counterexamples.front();
    EXPECT_TRUE(ce.violated);
    EXPECT_FALSE(ce.violation.kind.empty());
    EXPECT_NE(ce.violation.stateDigest, 0u);

    const ReplayReport rep = checker.replay(ce);
    EXPECT_TRUE(rep.reproduced) << rep.detail;
    EXPECT_TRUE(rep.bitExact) << rep.detail;
}

TEST(ModelCheckTest, EveryMutationPlacementIsCaught)
{
    // Wherever the skipped fence lands in the scenario, some path
    // exposes it — the checker's coverage does not depend on the
    // default schedule happening to hit the sabotaged shootdown.
    for (uint64_t nth = 1; nth <= 3; ++nth) {
        ModelConfig cfg;
        cfg.mutateSkipFenceNth = nth;
        ModelChecker checker(cfg);
        const CheckResult result = checker.run(1);
        EXPECT_EQ(result.counterexamples.size(), 1u) << "nth=" << nth;
    }
}

TEST(ModelCheckTest, CounterexampleRoundTripsThroughText)
{
    ModelConfig cfg;
    cfg.mutateSkipFenceNth = 2;
    ModelChecker checker(cfg);
    const CheckResult result = checker.run(1);
    ASSERT_FALSE(result.counterexamples.empty());
    const DecisionTrace &ce = result.counterexamples.front();

    const std::string text = serializeTrace(ce);
    DecisionTrace parsed;
    std::string err;
    ASSERT_TRUE(parseTrace(text, parsed, err)) << err;
    ASSERT_EQ(parsed.decisions.size(), ce.decisions.size());
    for (size_t i = 0; i < parsed.decisions.size(); ++i) {
        EXPECT_EQ(parsed.decisions[i].kind, ce.decisions[i].kind);
        EXPECT_EQ(parsed.decisions[i].altIndex,
                  ce.decisions[i].altIndex);
        EXPECT_EQ(parsed.decisions[i].numAlts,
                  ce.decisions[i].numAlts);
    }
    EXPECT_EQ(parsed.violation.kind, ce.violation.kind);
    EXPECT_EQ(parsed.violation.stateDigest, ce.violation.stateDigest);

    // The parsed config header reconstructs the checker that can
    // replay the parsed decisions — the full artifact round trip.
    ModelConfig cfg2;
    for (const std::string &line : parsed.configLines)
        ASSERT_TRUE(cfg2.applyConfigLine(line, err)) << err;
    EXPECT_EQ(cfg2.mutateSkipFenceNth, 2u);
    ModelChecker checker2(cfg2);
    const ReplayReport rep = checker2.replay(parsed);
    EXPECT_TRUE(rep.reproduced) << rep.detail;
    EXPECT_TRUE(rep.bitExact) << rep.detail;
}

TEST(ModelCheckTest, MinimizedTraceHasNoTrailingDefaults)
{
    ModelConfig cfg;
    cfg.mutateSkipFenceNth = 2;
    ModelChecker checker(cfg);
    const CheckResult result = checker.run(1);
    ASSERT_FALSE(result.counterexamples.empty());
    const DecisionTrace &ce = result.counterexamples.front();
    if (!ce.decisions.empty()) {
        EXPECT_NE(ce.decisions.back().altIndex, 0u);
    }
}

TEST(ModelCheckTest, MigrateScenarioIsCleanUnderFaultBranching)
{
    ModelConfig cfg;
    cfg.script = "migrate";
    ModelChecker checker(cfg);
    const CheckResult result = checker.run();
    EXPECT_TRUE(result.exhaustive);
    EXPECT_EQ(result.stats.violations, 0u);
    // One default path plus one per branchable fault hit at least.
    EXPECT_GT(result.stats.paths, cfg.effectiveSites().size());
}

TEST(ModelCheckTest, ConfigLinesRoundTrip)
{
    ModelConfig cfg;
    cfg.harts = 3;
    cfg.domains = 1;
    cfg.script = "migrate";
    cfg.maxFaults = 2;
    cfg.faultSites = {"migrate.frame_drop", "migrate.ack_lost"};
    cfg.mutateSkipFenceNth = 7;

    ModelConfig back;
    std::string err;
    for (const std::string &line : cfg.configLines())
        ASSERT_TRUE(back.applyConfigLine(line, err)) << err;
    EXPECT_EQ(back.harts, 3u);
    EXPECT_EQ(back.domains, 1u);
    EXPECT_EQ(back.script, "migrate");
    EXPECT_EQ(back.maxFaults, 2u);
    EXPECT_EQ(back.effectiveSites(), cfg.faultSites);
    EXPECT_EQ(back.mutateSkipFenceNth, 7u);

    EXPECT_FALSE(back.applyConfigLine("nonsense=1", err));
    EXPECT_FALSE(back.applyConfigLine("scheme=bogus", err));
}

TEST(ModelCheckTest, ParserRejectsMalformedTraces)
{
    DecisionTrace out;
    std::string err;
    EXPECT_FALSE(parseTrace("d sched 5/2 h0\n", out, err));
    EXPECT_FALSE(parseTrace("d sched 0/1\n", out, err));
    EXPECT_FALSE(parseTrace("garbage line\n", out, err));
    EXPECT_TRUE(parseTrace("# comment only\n", out, err));
}

} // namespace
} // namespace hpmp::verify
