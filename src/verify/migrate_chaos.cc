#include "verify/migrate_chaos.h"

#include <memory>
#include <string>
#include <vector>

#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/rng.h"
#include "base/stats.h"
#include "core/smp.h"
#include "mem/phys_mem.h"
#include "migrate/migration.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "verify/contracts.h"

namespace hpmp::verify
{

namespace
{

// Same chaos-window geometry as the monitor fuzzer: domains live far
// above the monitor-private region, one 64 MiB window per slot, and
// both hosts share it so identity placement always lands in a free
// window on the other side.
constexpr Addr kWindowBase = 256_MiB;
constexpr uint64_t kWindowSize = 64_MiB;
constexpr unsigned kSlots = 4;
constexpr uint64_t kPatternBytes = 128;

/** One migratable tenant: its current host, id and memory pattern. */
struct Slot
{
    DomainId id = 0;
    bool onDest = false; //!< currently lives on host B
    MemoryImage image;   //!< first region's pattern, checked on commit
};

} // namespace

ChaosStats
runTwoHostCampaign(const ChaosConfig &config)
{
    ChaosStats stats;
    stats.harts = config.harts;
    Rng rng(config.seed);

    // Two hosts. Distinct scheduler seeds: the interleavings are
    // independent machines, not mirrored ones.
    SmpParams spa;
    spa.harts = config.harts;
    spa.schedSeed = config.seed * 0x9E3779B97F4A7C15ULL + config.harts;
    SmpParams spb = spa;
    spb.schedSeed += 0x517cc1b727220a95ULL;
    // PMPTW-Cache on: cached leaf pmptes must stay coherent across
    // suspend/revoke/rollback on the source and activation on the
    // destination, and the oracle's probes audit the cached view.
    SystemFixture hostA(fixtureParams(8), spa, config.scheme);
    SystemFixture hostB(fixtureParams(8), spb, config.scheme);
    SecureMonitor &monA = hostA.monitor;
    SecureMonitor &monB = hostB.monitor;

    MigrateConfig ec;
    // Trace tracks: host A = 0, host B = 1, whichever direction a
    // migration runs — a failing-seed dump shows both hosts' spans on
    // consistent timelines.
    MigrateConfig ecBack = ec;
    ecBack.sourceSystemId = 1;
    ecBack.destSystemId = 0;
    CrossSystemOracle oracleFwd(monA, monB);
    CrossSystemOracle oracleBack(monB, monA);
    MigrationEngine engFwd(monA, monB, ec, "migrate");
    MigrationEngine engBack(monB, monA, ecBack, "migrate_back");
    engFwd.setOracle(&oracleFwd);
    engBack.setOracle(&oracleBack);

    // ---- population: kSlots tenants on host A ----------------------
    std::vector<Slot> slots(kSlots);
    for (unsigned i = 0; i < kSlots; ++i) {
        Slot &slot = slots[i];
        slot.image.base = kWindowBase + i * kWindowSize;
        slot.id = hostA.addDomain(slot.image.base, 2_MiB,
                                  i == 0 ? GmsLabel::Fast : GmsLabel::Slow);
        if (i == 0) {
            // A second region on one tenant: multi-region checkpoints
            // travel through the same stream.
            Gms extra;
            extra.base = slot.image.base + 32_MiB;
            extra.size = 1_MiB;
            extra.perm = Perm::ro();
            panic_if(!monA.addGms(slot.id, extra).ok,
                     "chaos setup addGms (extra)");
        }
        for (uint64_t j = 0; j < kPatternBytes; ++j)
            slot.image.bytes.push_back(uint8_t(0xA0 + 7 * i + j));
        hostA.smp.mem().writeBytes(slot.image.base,
                                   slot.image.bytes.data(), kPatternBytes);
    }

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(config.seed);

    const char *op_name = "?";
    auto fail = [&](unsigned index, const std::string &why) {
        if (!stats.failed) {
            stats.failed = true;
            stats.failure = "seed " + std::to_string(config.seed) +
                            " op #" + std::to_string(index) + " (" +
                            op_name + "): " + why;
        }
    };

    // Windowed telemetry across both hosts, clocked by the sum of
    // both monitors' simulated call cycles (work on either host
    // advances the campaign clock).
    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
    auto campaign_cycles = [&]() -> uint64_t {
        const Distribution *a = monA.stats().getDist("call_cycles");
        const Distribution *b = monB.stats().getDist("call_cycles");
        return (a ? a->sum() : 0) + (b ? b->sum() : 0);
    };
    auto register_stats = [&](StatRegistry &registry) {
        monA.registerStats(registry);
        hostA.smp.registerStats(registry);
        engFwd.registerStats(registry);
        engBack.registerStats(registry);
        oracleFwd.registerStats(registry);
    };
    if (config.statsSeriesOut) {
        register_stats(seriesRegistry);
        sampler = std::make_unique<StatSampler>(seriesRegistry,
                                                config.statsSeriesInterval);
    }

    for (unsigned i = 0; i < config.ops && !stats.failed; ++i) {
        if (sampler)
            sampler->advanceTo(campaign_cycles());
        ++stats.ops;
        if (rng.chance(config.faultProb)) {
            ++stats.injectedFaults;
            injector.armAnyNth(1 + rng.below(24));
        }

        const unsigned si = unsigned(rng.below(kSlots));
        Slot &slot = slots[si];
        SecureMonitor &here = slot.onDest ? monB : monA;
        SecureMonitor &there = slot.onDest ? monA : monB;

        if (rng.below(100) < 25) {
            // Lifecycle noise on the tenant's current host: switches
            // in and out keep register layouts churning between
            // migrations (typed failures are expected under faults).
            op_name = "noise-switch";
            if (here.switchTo(slot.id).ok)
                ++stats.okOps;
            else
                ++stats.failedOps;
            (void)here.switchTo(0);
            injector.clearPlans();
            continue;
        }
        op_name = "migrate";
        MigrationEngine &eng = slot.onDest ? engBack : engFwd;
        const uint64_t nonce = rng.below(1ull << 62) + 1;
        const MigrateResult res = eng.migrate(slot.id, nonce);
        ++stats.migrations;
        stats.migrateRetries += res.retries;
        stats.migrateBytes += res.bytes;
        FaultInjector::SuspendGuard guard;
        if (res.ok) {
            ++stats.migrateCommits;
            ++stats.okOps;
            // The retired source id must stay a typed denial —
            // including once the slot index is recycled.
            const MonitorResult probe = here.switchTo(slot.id);
            ++stats.migrateStaleProbes;
            if (probe.ok || (probe.code != MonitorError::NoSuchDomain &&
                             probe.code != MonitorError::StaleHandle)) {
                fail(i, "retired source id was not denied after "
                        "migration commit");
            }
        } else {
            ++stats.failedOps;
            if (res.stranded) {
                ++stats.migrateStranded;
            } else {
                ++stats.migrateAborts;
                ++stats.migrateDigestChecks;
                ++stats.rollbackChecks;
            }
        }
        if (const Breach b = judgeMigration(
                res, here, slot.id, there,
                slot.onDest ? oracleBack : oracleFwd,
                res.ok ? &slot.image : nullptr)) {
            fail(i, b.what);
        }
        // Operator recovery of a stranded domain: resume the staged copy.
        if (res.stranded && there.domainMigrating(res.destId) &&
            !there.resumeDomain(res.destId).ok) {
            fail(i, "stranded-domain recovery resume failed");
        }
        if (res.ok || res.stranded) {
            slot.id = res.destId;
            slot.onDest = !slot.onDest;
        }
        injector.clearPlans();
    }

    injector.disable();

    stats.dualGrantChecks = oracleFwd.checks() + oracleBack.checks();
    stats.dualGrantViolations =
        oracleFwd.violations() + oracleBack.violations();

    if (sampler) {
        sampler->sample(campaign_cycles());
        *config.statsSeriesOut = sampler->dumpJson();
    }
    if (config.statsJsonOut) {
        StatRegistry registry;
        register_stats(registry);
        *config.statsJsonOut = registry.dumpJson();
    }
    return stats;
}

} // namespace hpmp::verify
