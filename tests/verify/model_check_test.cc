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

TEST(ModelCheckTest, ConfigLinesRejectJunkValues)
{
    ModelConfig cfg;
    std::string err;
    // Non-numeric values, trailing junk, signs and overflow are errors
    // that leave the field untouched — never a silent 0.
    for (const char *line :
         {"harts=abc", "harts=2x", "harts=", "harts=-1", "harts= 2",
          "domains=1.5", "pages=0x", "depth=99999999999",
          "max_faults=two", "max_injects=1;", "fault_branch=2",
          "fault_branch=yes", "mutate_skip_fence=7q"}) {
        EXPECT_FALSE(cfg.applyConfigLine(line, err)) << line;
        EXPECT_NE(err.find("bad value"), std::string::npos) << err;
    }
    EXPECT_EQ(cfg.harts, 2u);
    EXPECT_FALSE(cfg.applyConfigLine("script=bogus", err));
    EXPECT_EQ(cfg.script, "core");
    EXPECT_TRUE(cfg.applyConfigLine("harts=0x3", err)) << err;
    EXPECT_EQ(cfg.harts, 3u);
    EXPECT_TRUE(cfg.applyConfigLine("fault_branch=0", err)) << err;
    EXPECT_FALSE(cfg.faultBranch);
}

TEST(ModelCheckTest, ValidateRejectsUnrunnableScenarios)
{
    std::string err;
    ModelConfig cfg;
    EXPECT_TRUE(cfg.validate(err)) << err;
    cfg.harts = 1;
    EXPECT_FALSE(cfg.validate(err));
    EXPECT_NE(err.find("harts >= 2"), std::string::npos) << err;
    cfg.harts = 2;
    cfg.domains = 0;
    EXPECT_FALSE(cfg.validate(err));
    cfg.script = "ras";
    EXPECT_FALSE(cfg.validate(err));
    // The migrate scenario builds its own one-hart, one-domain hosts.
    cfg.script = "migrate";
    cfg.harts = 1;
    EXPECT_TRUE(cfg.validate(err)) << err;
}

TEST(ModelCheckTest, ParserRejectsJunkNumbers)
{
    DecisionTrace out;
    std::string err;
    EXPECT_FALSE(parseTrace("d sched 1x/2 h0\n", out, err));
    EXPECT_FALSE(parseTrace("d sched 0/2x h0\n", out, err));
    EXPECT_FALSE(parseTrace("d sched 0/2 hq\n", out, err));
    EXPECT_FALSE(parseTrace("d sched 0/2 h1 extra\n", out, err));
    EXPECT_FALSE(parseTrace("violation kind=x op=abc\n", out, err));
    EXPECT_FALSE(parseTrace("violation kind=x digest=0xzz\n", out, err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    ASSERT_TRUE(parseTrace("violation kind=x op=2 digest=0x1f\n"
                           "d fault 1/2 monitor.switch\n"
                           "d sched 1/2 h1\n",
                           out, err))
        << err;
    EXPECT_EQ(out.violation.opIndex, 2u);
    EXPECT_EQ(out.violation.stateDigest, 0x1fu);
    ASSERT_EQ(out.decisions.size(), 2u);
    EXPECT_EQ(out.decisions[1].value, 1u);

    // A counterexample whose config header was edited to junk parses
    // as text, but its config line is refused when applied.
    ASSERT_TRUE(parseTrace("config harts=abc\n", out, err)) << err;
    ModelConfig cfg;
    EXPECT_FALSE(cfg.applyConfigLine(out.configLines.at(0), err));
}

} // namespace
} // namespace hpmp::verify
