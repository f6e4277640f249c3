/**
 * @file
 * Live domain migration tests (DESIGN.md §12): the two-phase handoff
 * commits a domain onto the destination with its memory, measurement
 * and vCPU contexts intact — and from *any* failure point before the
 * commit it rolls the source back to a running, digest-identical
 * state. A crash during commit strands the domain staged (suspended)
 * on the destination, granted nowhere, never granted twice. The
 * CrossSystemOracle asserts no interleaving shows both hosts granting
 * at once, and the full chaos matrix (8 seeds x {4,8} harts, fault
 * sites armed) ends with zero dual-grant windows and zero post-abort
 * digest divergences.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/fault_inject.h"
#include "base/frame_alloc.h"
#include "core/smp.h"
#include "core/virt_machine.h"
#include "migrate/checkpoint.h"
#include "migrate/migration.h"
#include "migrate/msg_channel.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "pt/page_table.h"
#include "verify/chaos_engine.h"

namespace hpmp
{
namespace
{

constexpr Addr kDomBase = 256_MiB;
constexpr uint64_t kDomSize = 2_MiB;
constexpr uint64_t kPatternBytes = 256;

class MigrateTest : public ::testing::Test
{
  protected:
    ~MigrateTest() override { FaultInjector::instance().disable(); }

    void
    makeHosts(unsigned harts, bool virt = false)
    {
        SmpParams sp;
        sp.harts = harts;
        sp.schedSeed = 31;
        smpA = std::make_unique<SmpSystem>(rocketParams(), sp);
        sp.schedSeed = 32;
        smpB = std::make_unique<SmpSystem>(rocketParams(), sp);
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monA = std::make_unique<SecureMonitor>(*smpA, config);
        monB = std::make_unique<SecureMonitor>(*smpB, config);
        for (unsigned h = 0; h < harts; ++h) {
            smpA->hart(h).setPriv(PrivMode::Supervisor);
            smpA->hart(h).setBare();
            smpB->hart(h).setPriv(PrivMode::Supervisor);
            smpB->hart(h).setBare();
        }
        if (virt) {
            smpA->enableVirt();
            smpB->enableVirt();
        }
    }

    /** A tenant with one RW region and a recognizable byte pattern. */
    DomainId
    makeTenant(Perm perm = Perm::rw())
    {
        const DomainId id = monA->createDomain();
        EXPECT_TRUE(monA->addGms(id, {kDomBase, kDomSize, perm,
                                      GmsLabel::Fast})
                        .ok);
        std::vector<uint8_t> pattern(kPatternBytes);
        for (uint64_t i = 0; i < kPatternBytes; ++i)
            pattern[i] = uint8_t(0x5A + i);
        smpA->mem().writeBytes(kDomBase, pattern.data(), pattern.size());
        return id;
    }

    bool
    patternIntact(PhysMem &mem, Addr base)
    {
        std::vector<uint8_t> buf(kPatternBytes);
        mem.readBytes(base, buf.data(), buf.size());
        for (uint64_t i = 0; i < kPatternBytes; ++i) {
            if (buf[i] != uint8_t(0x5A + i))
                return false;
        }
        return true;
    }

    std::unique_ptr<SmpSystem> smpA, smpB;
    std::unique_ptr<SecureMonitor> monA, monB;
};

TEST_F(MigrateTest, SuspendGatesMutationButNotDestroyOrMeasure)
{
    makeHosts(2);
    const DomainId id = makeTenant();

    // The host domain and the currently-running domain cannot quiesce.
    EXPECT_FALSE(monA->suspendDomain(0).ok);
    ASSERT_TRUE(monA->switchTo(id).ok);
    const MonitorResult cur = monA->suspendDomain(id);
    EXPECT_FALSE(cur.ok);
    EXPECT_NE(cur.error.find("switch away"), std::string::npos);
    ASSERT_TRUE(monA->switchTo(0).ok);

    // Baseline after the switch dance: suspend/resume must round-trip
    // the digest exactly (switches themselves re-cache segments).
    const uint64_t before = monA->stateDigest();
    ASSERT_TRUE(monA->suspendDomain(id).ok);
    EXPECT_TRUE(monA->domainMigrating(id));
    EXPECT_FALSE(monA->domainGrantable(id));
    // The migrating flag folds into the digest: a suspended source is
    // observably different from a running one.
    EXPECT_NE(monA->stateDigest(), before);

    // Every mutating call is a typed DomainMigrating denial...
    const Gms extra{kDomBase + 4_MiB, 1_MiB, Perm::rw(), GmsLabel::Slow};
    EXPECT_EQ(monA->addGms(id, extra).code, MonitorError::DomainMigrating);
    EXPECT_EQ(monA->setPerm(id, kDomBase, Perm::ro()).code,
              MonitorError::DomainMigrating);
    EXPECT_EQ(monA->setLabel(id, kDomBase, GmsLabel::Slow).code,
              MonitorError::DomainMigrating);
    EXPECT_EQ(monA->switchTo(id).code, MonitorError::DomainMigrating);
    // ...while checkpointing reads (measure/attest) stay available.
    EXPECT_TRUE(monA->measureDomain(id).ok);
    EXPECT_TRUE(monA->attestDomain(id, 7).ok);

    ASSERT_TRUE(monA->resumeDomain(id).ok);
    EXPECT_FALSE(monA->domainMigrating(id));
    EXPECT_TRUE(monA->domainGrantable(id));
    EXPECT_EQ(monA->stateDigest(), before);
    EXPECT_TRUE(monA->switchTo(id).ok);
}

TEST_F(MigrateTest, SuccessfulMigrationMovesDomainAndMemory)
{
    makeHosts(2);
    const DomainId id = makeTenant();
    // A second region: multi-region images stream in list order.
    ASSERT_TRUE(monA->addGms(id, {kDomBase + 8_MiB, 1_MiB, Perm::ro(),
                                  GmsLabel::Slow})
                    .ok);
    ASSERT_TRUE(monA->switchTo(id).ok); // quiesce must switch away

    CrossSystemOracle oracle(*monA, *monB);
    MigrationEngine engine(*monA, *monB);
    engine.setOracle(&oracle);
    const MigrateResult res = engine.migrate(id, 0xfeed);

    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.committed);
    EXPECT_TRUE(res.destActivated);
    EXPECT_TRUE(res.destSwitched);
    EXPECT_FALSE(res.stranded);
    EXPECT_GT(res.bytes, kDomSize); // memory + region records + report
    EXPECT_EQ(res.failedPhase, MigratePhase::Done);

    // Source: gone. Destination: running, switched in, memory intact.
    EXPECT_FALSE(monA->domainExists(id));
    EXPECT_TRUE(monB->domainGrantable(res.destId));
    EXPECT_EQ(monB->currentDomain(), res.destId);
    EXPECT_TRUE(patternIntact(smpB->mem(), kDomBase));

    // The destination re-derived the same measurement independently.
    const auto meas = monB->measureDomain(res.destId);
    ASSERT_TRUE(meas.ok);
    EXPECT_EQ(meas.value, monB->measureDomain(res.destId).value);

    EXPECT_FALSE(oracle.failed()) << oracle.failure();
    EXPECT_GT(oracle.checks(), 0u);
    EXPECT_EQ(oracle.violations(), 0u);
    EXPECT_GT(oracle.registerProbes(), 0u);
    EXPECT_EQ(engine.stats().get("commits"), 1u);
    EXPECT_EQ(engine.stats().get("aborts"), 0u);
}

TEST_F(MigrateTest, FirstDestAccessPaysTheColdTlbHgatpSwitchWalk)
{
    // Virt-enabled hosts: the domain carries a guest whose GPT/NPT
    // pages live inside its own GMS, so the tables travel in the
    // image and stay valid under identity placement.
    makeHosts(2, true);
    const DomainId id = makeTenant(Perm::rwx());

    const Addr kGva = 0x40000000;
    const Addr kData = kDomBase + 1_MiB;
    PageTable npt(smpA->mem(), bumpAllocator(kDomBase + 256_KiB),
                  PagingMode::Sv39, 2);
    PageTable gpt(smpA->mem(), bumpAllocator(kDomBase + 640_KiB),
                  PagingMode::Sv39, 0);
    // G-stage identity maps over the GPT pool and the data page.
    for (Addr off = 0; off < 128_KiB; off += kPageSize) {
        const Addr gpa = kDomBase + 640_KiB + off;
        ASSERT_TRUE(npt.map(gpa, gpa, Perm::rw(), true));
    }
    ASSERT_TRUE(npt.map(kData, kData, Perm::rwx(), true));
    ASSERT_TRUE(gpt.map(kGva, kData, Perm::rwx(), true));
    smpA->virtHart(0).setHgatp(npt.rootPa());
    smpA->virtHart(0).setVsatp(gpt.rootPa());

    // Warm the source: with the domain switched in, the guest access
    // walks once, then hits the combined TLB.
    ASSERT_TRUE(monA->switchTo(id).ok);
    ASSERT_TRUE(smpA->virtHart(0).access(kGva, AccessType::Load).ok());
    EXPECT_TRUE(smpA->virtHart(0).access(kGva, AccessType::Load).tlbHit);

    MigrationEngine engine(*monA, *monB);
    const MigrateResult res = engine.migrate(id, 0xbeef);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_TRUE(res.destSwitched);

    // The checkpointed vCPU context landed on the destination hart...
    EXPECT_EQ(smpB->virtHart(0).hgatpRoot(), npt.rootPa());
    EXPECT_EQ(smpB->virtHart(0).vsatpRoot(), gpt.rootPa());

    // ...and its first guest access pays the full cold-TLB walk: the
    // hgatp/vsatp installs fenced everything, so no microarchitectural
    // state survived the migration — only architectural state did.
    const AccessOutcome first =
        smpB->virtHart(0).access(kGva, AccessType::Load);
    EXPECT_TRUE(first.ok());
    EXPECT_FALSE(first.tlbHit);
    EXPECT_GT(first.gptRefs, 0u);
    EXPECT_GT(first.nptRefs, 0u);
    // Warm after the first touch, as on any freshly-switched vCPU.
    EXPECT_TRUE(smpB->virtHart(0).access(kGva, AccessType::Load).tlbHit);
}

TEST_F(MigrateTest, EveryAbortPathRestoresABitIdenticalSource)
{
    // The fault-site sweep of the abort matrix: each site forces its
    // phase to fail, and every path must leave the source running and
    // digest-identical, with the staged destination copy torn down.
    struct Case
    {
        const char *site;
        bool everyHit; //!< armProb(1.0) vs armNth(1)
        MigratePhase phase;
    };
    const Case cases[] = {
        {"monitor.suspend", false, MigratePhase::Quiesce},
        {"migrate.checkpoint_torn", false, MigratePhase::Checkpoint},
        {"migrate.frame_drop", true, MigratePhase::Transfer},
        {"migrate.frame_corrupt", true, MigratePhase::Transfer},
        {"migrate.dest_attest", false, MigratePhase::Verify},
        {"migrate.ack_lost", true, MigratePhase::Ack},
    };
    for (const Case &c : cases) {
        makeHosts(2);
        const DomainId id = makeTenant();
        ASSERT_TRUE(monA->switchTo(id).ok);

        CrossSystemOracle oracle(*monA, *monB);
        MigrationEngine engine(*monA, *monB);
        engine.setOracle(&oracle);

        FaultInjector &injector = FaultInjector::instance();
        injector.enable(5);
        if (c.everyHit)
            injector.armProb(c.site, 1.0);
        else
            injector.armNth(c.site, 1);
        const MigrateResult res = engine.migrate(id, 0xabad1dea);
        injector.clearPlans();
        injector.disable();

        EXPECT_FALSE(res.ok) << c.site;
        EXPECT_FALSE(res.committed) << c.site;
        EXPECT_FALSE(res.stranded) << c.site;
        EXPECT_EQ(res.failedPhase, c.phase) << c.site;

        // The contract under test: bit-identical source rollback.
        EXPECT_EQ(res.sourcePostDigest, res.sourcePreDigest) << c.site;
        EXPECT_EQ(monA->stateDigest(), res.sourcePreDigest) << c.site;
        EXPECT_TRUE(monA->domainGrantable(id)) << c.site;
        EXPECT_TRUE(monA->switchTo(id).ok) << c.site;
        EXPECT_TRUE(patternIntact(smpA->mem(), kDomBase)) << c.site;

        // Nothing stays staged on the destination.
        EXPECT_TRUE(monB->domainIds().size() == 1) << c.site; // host only
        EXPECT_FALSE(oracle.failed()) << c.site << ": "
                                      << oracle.failure();
        EXPECT_EQ(engine.stats().get("commits"), 0u) << c.site;
        EXPECT_EQ(engine.stats().get("aborts"), 1u) << c.site;
    }
}

TEST_F(MigrateTest, DuplicatedFramesAreDedupedNotFatal)
{
    makeHosts(2);
    const DomainId id = makeTenant();

    MigrationEngine engine(*monA, *monB);
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(6);
    injector.armProb("migrate.frame_dup", 1.0);
    const MigrateResult res = engine.migrate(id, 0xd00d);
    injector.clearPlans();
    injector.disable();

    // Every frame arrived twice; the receiver's seq-dedup makes that
    // harmless and the migration commits cleanly.
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_GT(engine.stats().get("frames_duplicated"), 0u);
    EXPECT_TRUE(patternIntact(smpB->mem(), kDomBase));
}

TEST_F(MigrateTest, CommitCrashStrandsTheDomainStagedNotDual)
{
    makeHosts(2);
    const DomainId id = makeTenant();

    CrossSystemOracle oracle(*monA, *monB);
    MigrationEngine engine(*monA, *monB);
    engine.setOracle(&oracle);

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(7);
    injector.armProb("migrate.commit_crash", 1.0);
    const MigrateResult res = engine.migrate(id, 0xc0de);
    injector.clearPlans();
    injector.disable();

    // Crash-during-commit: failed, but crash-consistent. The source
    // copy is gone (the destroy *was* the commit point) and the
    // destination holds the only copy — staged, granted nowhere.
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.committed);
    EXPECT_TRUE(res.stranded);
    EXPECT_EQ(res.failedPhase, MigratePhase::Commit);
    EXPECT_FALSE(res.destActivated);
    EXPECT_FALSE(monA->domainExists(id));
    EXPECT_TRUE(monB->domainMigrating(res.destId));
    EXPECT_FALSE(monB->domainGrantable(res.destId));
    EXPECT_FALSE(oracle.failed()) << oracle.failure();
    EXPECT_EQ(engine.stats().get("stranded"), 1u);

    // Operator recovery: resume the staged copy; the data survived.
    ASSERT_TRUE(monB->resumeDomain(res.destId).ok);
    EXPECT_TRUE(monB->domainGrantable(res.destId));
    EXPECT_TRUE(patternIntact(smpB->mem(), kDomBase));
}

TEST_F(MigrateTest, RecycledIdStaysDeniedAcrossCallsAndMigration)
{
    // PR-6 regression, extended to migration: a domain id presented
    // after destroy-and-recycle must be a typed StaleHandle denial on
    // every monitor call — and the migration engine must refuse to
    // even begin migrating through one.
    makeHosts(2);
    const DomainId old = makeTenant();
    ASSERT_TRUE(monA->destroyDomain(old).ok);
    const DomainId fresh = monA->createDomain(); // recycles the slot
    ASSERT_NE(old, fresh);
    ASSERT_TRUE(monA->addGms(fresh, {kDomBase, kDomSize, Perm::rw(),
                                     GmsLabel::Fast})
                    .ok);

    const auto expectStale = [&](const MonitorResult &r,
                                 const char *what) {
        EXPECT_FALSE(r.ok) << what;
        EXPECT_EQ(r.code, MonitorError::StaleHandle) << what;
    };
    expectStale(monA->switchTo(old), "switchTo");
    expectStale(monA->addGms(old, {kDomBase + 8_MiB, 1_MiB, Perm::rw(),
                                   GmsLabel::Slow}),
                "addGms");
    expectStale(monA->suspendDomain(old), "suspendDomain");
    expectStale(monA->resumeDomain(old), "resumeDomain");
    expectStale(monA->destroyDomain(old), "destroyDomain");
    EXPECT_EQ(monA->measureDomain(old).code, MonitorError::StaleHandle);

    // Migrating the stale handle aborts in Quiesce with the same typed
    // error and does not perturb the source digest.
    MigrationEngine engine(*monA, *monB);
    const uint64_t before = monA->stateDigest();
    const MigrateResult res = engine.migrate(old, 0x1dea);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.failedPhase, MigratePhase::Quiesce);
    EXPECT_EQ(res.code, MonitorError::StaleHandle);
    EXPECT_EQ(monA->stateDigest(), before);

    // While the *fresh* domain is mid-migration (suspended), the
    // recycled id must stay denied — an in-flight handoff must not
    // widen what a stale handle can reach.
    ASSERT_TRUE(monA->suspendDomain(fresh).ok);
    expectStale(monA->switchTo(old), "switchTo (in-flight)");
    expectStale(monA->suspendDomain(old), "suspendDomain (in-flight)");
    EXPECT_EQ(monA->measureDomain(old).code, MonitorError::StaleHandle);
    ASSERT_TRUE(monA->resumeDomain(fresh).ok);

    // After a *committed* migration the retired source id is denied
    // too (NoSuchDomain until recycled, StaleHandle after).
    const MigrateResult moved = engine.migrate(fresh, 0x2dea);
    ASSERT_TRUE(moved.ok) << moved.error;
    const MonitorResult gone = monA->switchTo(fresh);
    EXPECT_FALSE(gone.ok);
    EXPECT_TRUE(gone.code == MonitorError::NoSuchDomain ||
                gone.code == MonitorError::StaleHandle);
}

TEST_F(MigrateTest, ChannelChecksumsAndCheckpointImagesAreEndToEnd)
{
    // Transport integrity: a clean frame round-trips; a bit flipped
    // after the checksum stamp is discarded by valid().
    MsgChannel ch;
    MsgFrame f;
    f.seq = 3;
    f.totalFrames = 7;
    f.payload = {1, 2, 3, 4, 5};
    ch.send(f);
    MsgFrame rx;
    ASSERT_TRUE(ch.recv(rx));
    EXPECT_TRUE(MsgChannel::valid(rx));
    EXPECT_EQ(rx.payload, f.payload);
    rx.payload[2] ^= 0x40;
    EXPECT_FALSE(MsgChannel::valid(rx));

    // Checkpoint images survive serialize/deserialize bit-exactly and
    // reject truncation at any byte boundary near the tail.
    makeHosts(2);
    const DomainId id = makeTenant();
    ASSERT_TRUE(monA->suspendDomain(id).ok);
    DomainCheckpoint cp;
    ASSERT_EQ(captureCheckpoint(*monA, id, 42, cp), "");
    EXPECT_EQ(cp.sourceId, id);
    EXPECT_EQ(cp.harts.size(), 2u);
    EXPECT_EQ(cp.memory.size(), kDomSize);

    const std::vector<uint8_t> image = serializeCheckpoint(cp);
    DomainCheckpoint out;
    ASSERT_TRUE(deserializeCheckpoint(image, out));
    EXPECT_EQ(out.sourceId, cp.sourceId);
    EXPECT_EQ(out.nonce, cp.nonce);
    EXPECT_EQ(out.measurement, cp.measurement);
    EXPECT_EQ(out.regions.size(), cp.regions.size());
    EXPECT_EQ(out.memory, cp.memory);
    EXPECT_EQ(out.harts.size(), cp.harts.size());
    EXPECT_EQ(out.harts[0].satpRoot, cp.harts[0].satpRoot);

    for (size_t cut : {size_t(1), size_t(8), size_t(100)}) {
        std::vector<uint8_t> torn(image.begin(), image.end() - cut);
        EXPECT_FALSE(deserializeCheckpoint(torn, out)) << cut;
    }
    std::vector<uint8_t> overlong = image;
    overlong.push_back(0);
    EXPECT_FALSE(deserializeCheckpoint(overlong, out));

    // Capture refuses a domain that was never quiesced.
    ASSERT_TRUE(monA->resumeDomain(id).ok);
    EXPECT_NE(captureCheckpoint(*monA, id, 43, cp), "");
}

TEST(MigrateChaosTest, MatrixHasZeroDualGrantWindowsAndCleanAborts)
{
    // The acceptance matrix: 8 seeds x {4, 8} harts with fault sites
    // armed across every protocol phase. stats.failed covers dual
    // grants, post-abort digest divergence, pattern corruption and
    // stale-id leaks alike.
    uint64_t commits = 0, aborts = 0, checks = 0, digests = 0;
    for (const unsigned harts : {4u, 8u}) {
        for (uint64_t seed = 1; seed <= 8; ++seed) {
            verify::CampaignConfig config;
            config.seed = seed;
            config.ops = 40;
            config.faultProb = 0.3;
            config.harts = harts;
            config.layer = verify::ChaosLayer::Migrate;
            const verify::ChaosStats stats = verify::runChaos(config);
            EXPECT_FALSE(stats.failed) << stats.failure;
            EXPECT_EQ(stats.dualGrantViolations, 0u)
                << "seed " << seed << " harts " << harts;
            EXPECT_GT(stats.migrations, 0u);
            commits += stats.migrateCommits;
            aborts += stats.migrateAborts;
            checks += stats.dualGrantChecks;
            digests += stats.migrateDigestChecks;
        }
    }
    // The sweep must actually exercise both outcomes at scale.
    EXPECT_GT(commits, 0u);
    EXPECT_GT(aborts, 0u);
    EXPECT_GT(checks, 0u);
    EXPECT_GT(digests, 0u);
}

} // namespace
} // namespace hpmp
