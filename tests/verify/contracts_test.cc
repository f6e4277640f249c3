/**
 * @file
 * The shared campaign contracts (verify/contracts.h), tested directly:
 * for each check, one planted violation must be reported under its
 * stable kind string, and the matching clean case must pass. Both the
 * chaos engine and the model checker report these kinds, so a
 * regression here would blind both.
 */

#include <gtest/gtest.h>

#include <vector>

#include "migrate/migration.h"
#include "verify/contracts.h"

namespace hpmp::verify
{
namespace
{

constexpr Addr kRegionA = 256_MiB;
constexpr Addr kRegionB = 320_MiB;
constexpr Addr kFreePage = 384_MiB;

/** Two harts, two Slow (table-backed) domains, a probe that never fires. */
struct Harness
{
    Harness()
        : sys(fixtureParams(0), {.harts = 2}, IsolationScheme::Hpmp),
          checker(sys.monitor),
          probe(sys.monitor, checker,
                [this](const IpiEvent &) { return fire; })
    {
        a = sys.addDomain(kRegionA, 64_KiB, GmsLabel::Slow);
        b = sys.addDomain(kRegionB, 64_KiB, GmsLabel::Slow);
        sys.smp.setInterleaveHook(&probe);
    }
    ~Harness() { sys.smp.setInterleaveHook(nullptr); }

    Breach
    audit(const MonitorResult &result, const std::vector<uint64_t> *pre,
          bool convergence)
    {
        return auditOp(sys.monitor, checker, probe,
                       {.result = &result,
                        .pre = pre,
                        .convergence = convergence,
                        .where = "planted"});
    }

    SystemFixture sys;
    StaleChecker checker;
    bool fire = false;
    IpiProbe probe;
    DomainId a = 0, b = 0;
};

TEST(ContractsTest, CleanOpPassesTheWholeBattery)
{
    Harness h;
    std::vector<uint64_t> pre(2);
    rollbackDigests(h.sys.monitor, pre);
    const MonitorResult ok = h.sys.monitor.switchTo(h.a);
    ASSERT_TRUE(ok.ok);
    const Breach b = h.audit(ok, &pre, true);
    EXPECT_FALSE(b) << b.kind << ": " << b.what;
}

TEST(ContractsTest, RollbackDivergenceIsReported)
{
    Harness h;
    std::vector<uint64_t> pre(2);
    rollbackDigests(h.sys.monitor, pre);
    // The state moves, yet the op claims a failed (rolled-back) call.
    ASSERT_TRUE(h.sys.monitor.switchTo(h.a).ok);
    const MonitorResult failed =
        MonitorResult::fail(MonitorError::InjectedFault, "planted");
    EXPECT_EQ(h.audit(failed, &pre, false).kind, "rollback_divergence");
    // The same failure with its digests unchanged is a clean rollback.
    rollbackDigests(h.sys.monitor, pre);
    EXPECT_FALSE(h.audit(failed, &pre, false));
}

TEST(ContractsTest, ConvergenceDivergenceIsReported)
{
    Harness h;
    // Sabotage the next shootdown: hart 1 is never fenced to the new
    // layout, so its register file disagrees with hart 0's.
    h.sys.monitor.testSkipFenceNth(1);
    const MonitorResult ok = h.sys.monitor.switchTo(h.a);
    ASSERT_TRUE(ok.ok);
    const Breach b = h.audit(ok, nullptr, true);
    EXPECT_EQ(b.kind, "convergence_divergence");
    EXPECT_NE(b.what.find("after committed planted"), std::string::npos)
        << b.what;
}

TEST(ContractsTest, UnclosedWindowIsReported)
{
    Harness h;
    h.probe.onIpiStep({IpiPhase::WindowBegin, 0, 0, 1});
    EXPECT_EQ(h.probe.openWindows(), 1);
    EXPECT_EQ(h.audit({}, nullptr, false).kind, "unclosed_window");
    h.probe.onIpiStep({IpiPhase::WindowEnd, 0, 0, 1});
    EXPECT_FALSE(h.audit({}, nullptr, false));
}

TEST(ContractsTest, NestedCallThatDoesNotBounceIsReported)
{
    Harness h;
    // Inside a real shootdown the lock bounces every nested call.
    h.fire = true;
    ASSERT_TRUE(h.sys.monitor.switchTo(h.a).ok);
    EXPECT_GT(h.probe.bounced(), 0u);
    EXPECT_FALSE(h.probe.breach());
    // Outside any transaction nothing holds the lock: the nested call
    // goes through, which is exactly what the probe must catch.
    h.probe.onIpiStep({IpiPhase::Posted, 0, 1, 99});
    ASSERT_TRUE(h.probe.breach());
    EXPECT_EQ(h.audit({}, nullptr, false).kind, "nested_call");
}

TEST(ContractsTest, RasBystanderKilledIsReported)
{
    Harness h;
    ContainmentAudit audit(h.sys.monitor);
    const Addr line = kRegionA + 0x40;
    h.sys.smp.mem().poisonLine(line);
    audit.before(PoisonClass::Data, line, h.a);
    const auto out = h.sys.monitor.handleMachineCheck(line);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.value, RasOutcome::ContainedDomain);
    ContainmentAudit clean = audit;
    EXPECT_FALSE(clean.after(out));
    // Plant a blast: the containment also took a bystander down.
    ASSERT_TRUE(h.sys.monitor.destroyDomain(h.b).ok);
    const Breach b = audit.after(out);
    EXPECT_EQ(b.kind, "blast_radius");
    EXPECT_NE(b.what.find("bystander"), std::string::npos) << b.what;
}

TEST(ContractsTest, HealedRootUnchangedIsReported)
{
    Harness h;
    ContainmentAudit audit(h.sys.monitor);
    const PmpTable *table = h.sys.monitor.tablePeek(h.a);
    ASSERT_NE(table, nullptr);
    ASSERT_FALSE(table->tablePages().empty());
    const Addr frame = table->tablePages().front();
    audit.before(PoisonClass::Pmpte, frame, h.a, table->rootPa());
    // Claim a heal that never re-pointed the table.
    MonitorValue<RasOutcome> healed;
    healed.value = RasOutcome::HealedTable;
    EXPECT_EQ(audit.after(healed).kind, "heal");
}

TEST(ContractsTest, RetiredFrameMissingFromQuarantineIsReported)
{
    Harness h;
    ContainmentAudit audit(h.sys.monitor);
    audit.before(PoisonClass::Free, kFreePage);
    // Claim the frame was retired without the monitor retiring it.
    MonitorValue<RasOutcome> retired;
    retired.value = RasOutcome::QuarantinedFree;
    EXPECT_EQ(audit.after(retired).kind, "quarantine");
    // A real report retires it; the idempotent repeat is a no-op.
    h.sys.smp.mem().poisonLine(kFreePage);
    audit.before(PoisonClass::Free, kFreePage);
    EXPECT_FALSE(audit.after(h.sys.monitor.handleMachineCheck(kFreePage)));
    audit.before(PoisonClass::Free, kFreePage);
    EXPECT_FALSE(audit.after(h.sys.monitor.handleMachineCheck(kFreePage)));
    EXPECT_FALSE(audit.finish());
}

/** Two single-hart hosts and a domain to move from `src` to `dst`. */
struct TwoHosts
{
    TwoHosts()
        : src(fixtureParams(0), {.harts = 1}, IsolationScheme::Hpmp),
          dst(fixtureParams(0), {.harts = 1}, IsolationScheme::Hpmp),
          oracle(src.monitor, dst.monitor)
    {
        id = src.addDomain(kRegionA, 64_KiB, GmsLabel::Fast);
    }

    SystemFixture src, dst;
    CrossSystemOracle oracle;
    DomainId id = 0;
};

TEST(ContractsTest, RealMigrationCommitPasses)
{
    TwoHosts t;
    MigrationEngine engine(t.src.monitor, t.dst.monitor);
    engine.setOracle(&t.oracle);
    const MigrateResult res = engine.migrate(t.id, 1);
    ASSERT_TRUE(res.ok) << res.error;
    const Breach b =
        judgeMigration(res, t.src.monitor, t.id, t.dst.monitor, t.oracle);
    EXPECT_FALSE(b) << b.kind << ": " << b.what;
}

TEST(ContractsTest, SourceStillGrantingAfterCommitIsReported)
{
    TwoHosts t;
    MigrateResult res;
    res.ok = true;
    res.committed = true;
    res.destId = t.dst.addDomain(kRegionA, 64_KiB, GmsLabel::Fast);
    // The source copy was never destroyed: granted on both hosts.
    EXPECT_EQ(
        judgeMigration(res, t.src.monitor, t.id, t.dst.monitor, t.oracle)
            .kind,
        "commit_state");
}

TEST(ContractsTest, AbortDigestMismatchIsReported)
{
    TwoHosts t;
    MigrateResult res;
    res.failedPhase = MigratePhase::Transfer;
    res.sourcePreDigest = t.src.monitor.stateDigest();
    res.sourcePostDigest = res.sourcePreDigest;
    EXPECT_FALSE(
        judgeMigration(res, t.src.monitor, t.id, t.dst.monitor, t.oracle));
    res.sourcePostDigest = res.sourcePreDigest + 1;
    EXPECT_EQ(
        judgeMigration(res, t.src.monitor, t.id, t.dst.monitor, t.oracle)
            .kind,
        "abort_digest");
}

TEST(ContractsTest, StrandedDomainWithLiveGrantIsReported)
{
    // No chaos campaign strands a domain, so this branch is only
    // reached here: COMMIT was lost after the source was destroyed.
    TwoHosts t;
    ASSERT_TRUE(t.src.monitor.destroyDomain(t.id).ok);
    MigrateResult res;
    res.committed = true;
    res.stranded = true;
    res.failedPhase = MigratePhase::Commit;
    res.destId = t.dst.addDomain(kRegionA, 64_KiB, GmsLabel::Fast);
    // Staged (suspended) on the destination is the legal stranded state.
    ASSERT_TRUE(t.dst.monitor.suspendDomain(res.destId).ok);
    EXPECT_FALSE(
        judgeMigration(res, t.src.monitor, t.id, t.dst.monitor, t.oracle));
    // Active on the destination without a COMMIT is a live grant.
    ASSERT_TRUE(t.dst.monitor.resumeDomain(res.destId).ok);
    EXPECT_EQ(
        judgeMigration(res, t.src.monitor, t.id, t.dst.monitor, t.oracle)
            .kind,
        "stranded_grant");
}

} // namespace
} // namespace hpmp::verify
