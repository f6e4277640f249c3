#include "verify/harness.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

#include "base/addr.h"
#include "base/fault_inject.h"
#include "base/hash.h"
#include "base/logging.h"
#include "core/smp.h"
#include "migrate/migration.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "verify/contracts.h"

namespace hpmp::verify
{

namespace
{

// ---- bounded-scenario geometry ------------------------------------
// Enclave regions live well above the monitor-private region (first
// 128 MiB) and are NAPOT so fast GMSs can use segment entries.
constexpr Addr kRegionBase = 256_MiB;
constexpr Addr kRegionStride = 64_MiB;

Addr
regionOf(unsigned enclave) // 1-based
{
    return kRegionBase + Addr(enclave - 1) * kRegionStride;
}

uint64_t
napotPages(unsigned pages)
{
    uint64_t p = 1;
    while (p < pages)
        p <<= 1;
    return p;
}

// ---- the decision tap shared by all three nondeterminism sources --

struct PathController
{
    const std::vector<Decision> *forced = nullptr;
    std::vector<Decision> made;
    unsigned depthLimit = 0;
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
     * Record one branch point and return the alternative to take:
     * the forced prefix's choice while replaying, the default
     * (alts[0]) beyond it. Single-alternative points are not
     * decisions and are not recorded.
     */
    unsigned
    choose(DecisionKind kind, const std::vector<unsigned> &alts,
           const std::string &label)
    {
        panic_if(alts.empty(), "decision point with no alternatives");
        if (alts.size() == 1 || truncated)
            return alts[0];
        if (depthLimit != 0 && made.size() >= depthLimit) {
            truncated = true;
            return alts[0];
        }
        Decision d;
        d.kind = kind;
        d.numAlts = unsigned(alts.size());
        d.label = label;
        if (!pastPrefix() && !divergence) {
            const Decision &f = (*forced)[made.size()];
            if (f.kind != kind || f.numAlts != d.numAlts ||
                f.altIndex >= d.numAlts) {
                divergence = true;
                divergenceWhy =
                    "decision #" + std::to_string(made.size()) +
                    ": trace has " + std::string(toString(f.kind)) +
                    " " + std::to_string(f.altIndex) + "/" +
                    std::to_string(f.numAlts) + ", run offers " +
                    std::string(toString(kind)) + " ?/" +
                    std::to_string(d.numAlts);
            } else {
                d.altIndex = f.altIndex;
            }
        }
        d.value = alts[d.altIndex];
        made.push_back(d);
        return d.value;
    }
};

const std::vector<unsigned> kBinaryAlts{0, 1};

constexpr std::pair<const char *, IsolationScheme> kSchemeNames[] = {
    {"hpmp", IsolationScheme::Hpmp},
    {"pmpt", IsolationScheme::PmpTable},
    {"pmp", IsolationScheme::Pmp},
};

/** Record the path's violation, stamped with the state key at detection. */
void
recordViolation(RunOutcome &out, const std::string &kind,
                const std::string &what, unsigned op, uint64_t key)
{
    out.violated = true;
    out.violation = {kind, what, op, key};
    out.finalDigest = key;
}

/**
 * Hand a finished path's decisions and flags to `out`. With
 * `count_decisions`, the decisions past the forced prefix count as the
 * path's new transitions (scripts without per-op dedup).
 */
void
finishPath(PathController &ctl, RunOutcome &out, bool count_decisions)
{
    const bool past_prefix = ctl.pastPrefix();
    out.decisions = std::move(ctl.made);
    out.truncated = ctl.truncated;
    out.divergence = ctl.divergence;
    out.divergenceWhy = ctl.divergenceWhy;
    if (count_decisions && past_prefix) {
        out.newTransitions =
            out.decisions.size() - (ctl.forced ? ctl.forced->size() : 0);
    }
}

/**
 * One path's decision state with the fault-branch tap installed. The
 * controller replays `forced`; while the fault budget lasts, every
 * hit of a branchable site (ModelConfig::effectiveSites) is a binary
 * Fault decision. The injector is process-global, so destruction
 * disables it: a path never leaks its controller.
 */
struct FaultBranching
{
    PathController ctl;
    std::set<std::string> sites;
    bool firedThisOp = false; //!< set by the tap; the scenario clears it

    FaultBranching(const ModelConfig &cfg,
                   const std::vector<Decision> *forced,
                   unsigned inject_budget)
    {
        ctl.forced = forced;
        ctl.depthLimit = cfg.depthLimit;
        ctl.faultBudget = cfg.faultBranch ? cfg.maxFaults : 0;
        ctl.injectBudget = inject_budget;
        const std::vector<std::string> siteList = cfg.effectiveSites();
        sites.insert(siteList.begin(), siteList.end());
        FaultInjector &inj = FaultInjector::instance();
        inj.enable(1);
        inj.setDecisionController([this](const char *site) {
            if (ctl.faultsFired >= ctl.faultBudget)
                return false;
            if (sites.find(site) == sites.end())
                return false;
            if (ctl.choose(DecisionKind::Fault, kBinaryAlts, site) != 1)
                return false;
            ++ctl.faultsFired;
            firedThisOp = true;
            return true;
        });
    }

    ~FaultBranching() { FaultInjector::instance().disable(); }
    FaultBranching(const FaultBranching &) = delete;
    FaultBranching &operator=(const FaultBranching &) = delete;
};

// ---- the monitor-call script --------------------------------------

enum class OpKind : uint8_t
{
    Switch,
    SetPerm,
    AddGms,
    RemoveGms,
    SetLabel,
    Share,
    Access,
};

struct ScriptOp
{
    OpKind kind = OpKind::Access;
    unsigned dom = 0;  //!< domain index (0 = host, 1.. = enclaves)
    unsigned peer = 0; //!< Share: receiving domain index
    Addr addr = 0;
    uint64_t size = 0;
    Perm perm{};
    GmsLabel label = GmsLabel::Slow;
    AccessType type = AccessType::Load;
    const char *name = "?";
    /** State-invisible op (pure access on a bare hart): eligible for
     *  the sleep-set-style scheduling merge. */
    bool local = false;
};

std::vector<std::vector<ScriptOp>>
buildCoreScript(const ModelConfig &cfg)
{
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    const Addr pageA = regionOf(1);
    // Free space in enclave 1's 64 MiB region for the one-domain script.
    const Addr extra = regionOf(1) + 32_MiB;
    const unsigned last = cfg.domains;
    const Addr pageLast = regionOf(last);

    std::vector<std::vector<ScriptOp>> script(cfg.harts);

    auto access = [](Addr a, AccessType t, const char *n) {
        return ScriptOp{.addr = a, .type = t, .name = n, .local = true};
    };

    // Hart 0: the initiator-heavy path — switch in, revoke a
    // permission (the stale-grant workhorse), share + unshare.
    script[0] = {
        {.kind = OpKind::Switch, .dom = 1, .name = "switch_d1"},
        {.kind = OpKind::SetPerm, .dom = 1, .addr = pageA,
         .perm = Perm::ro(), .name = "revoke_w_A"},
        access(pageA, AccessType::Store, "store_A"),
    };
    if (cfg.domains >= 2) {
        script[0].push_back({.kind = OpKind::Share, .dom = 1, .peer = 2,
                             .addr = pageA, .perm = Perm::ro(),
                             .name = "share_A_d2"});
        script[0].push_back({.kind = OpKind::RemoveGms, .dom = 2,
                             .addr = pageA, .name = "unshare_A_d2"});
    } else {
        script[0].push_back({.kind = OpKind::AddGms, .dom = 1,
                             .addr = extra, .size = gmsBytes,
                             .perm = Perm::rw(), .name = "add_extra"});
        script[0].push_back({.kind = OpKind::RemoveGms, .dom = 1,
                             .addr = extra, .name = "remove_extra"});
    }

    // Hart 1: a victim that also initiates — reads the revoked page,
    // switches domains, relabels.
    script[1] = {
        access(pageA, AccessType::Load, "load_A"),
        {.kind = OpKind::Switch, .dom = last, .name = "switch_last"},
        access(pageLast, AccessType::Store, "store_last"),
        {.kind = OpKind::SetLabel, .dom = last, .addr = pageLast,
         .label = GmsLabel::Slow, .name = "relabel_last"},
    };

    // Further harts: light probes + a switch, to scale interleavings.
    for (unsigned h = 2; h < cfg.harts; ++h) {
        script[h] = {
            access(pageA, AccessType::Load, "load_A"),
            {.kind = OpKind::Switch, .dom = (h % cfg.domains) + 1,
             .name = "switch_mod"},
            access(pageLast, AccessType::Load, "load_last"),
        };
    }
    return script;
}

} // namespace

std::vector<std::string>
ModelConfig::effectiveSites() const
{
    if (!faultSites.empty())
        return faultSites;
    if (script == "migrate") {
        return {"migrate.ack_lost",      "migrate.checkpoint_torn",
                "migrate.commit_crash",  "migrate.dest_attest",
                "migrate.frame_corrupt", "migrate.frame_drop",
                "migrate.frame_dup"};
    }
    // The two containment workhorses handleMachineCheck() delegates
    // to: branching them enumerates every failed-containment path, and
    // the harness then demands a bit-identical rollback.
    if (script == "ras")
        return {"monitor.destroy_domain", "monitor.heal_table"};
    return {"monitor.add_gms", "monitor.remove_gms", "monitor.set_label",
            "monitor.set_perm", "monitor.share_gms", "monitor.switch",
            "smp.ipi_ack",     "smp.ipi_deliver"};
}

std::vector<std::string>
ModelConfig::configLines() const
{
    std::vector<std::string> lines;
    lines.push_back("harts=" + std::to_string(harts));
    lines.push_back("domains=" + std::to_string(domains));
    lines.push_back("pages=" + std::to_string(pages));
    for (const auto &[name, value] : kSchemeNames) {
        if (value == scheme)
            lines.push_back(std::string("scheme=") + name);
    }
    lines.push_back("script=" + script);
    lines.push_back("depth=" + std::to_string(depthLimit));
    lines.push_back("fault_branch=" + std::to_string(faultBranch ? 1 : 0));
    lines.push_back("max_faults=" + std::to_string(maxFaults));
    lines.push_back("max_injects=" + std::to_string(maxInjects));
    std::string sites;
    for (const std::string &site : effectiveSites())
        sites += (sites.empty() ? "" : ",") + site;
    lines.push_back("sites=" + sites);
    lines.push_back("mutate_skip_fence=" +
                    std::to_string(mutateSkipFenceNth));
    return lines;
}

bool
ModelConfig::applyConfigLine(const std::string &line, std::string &error)
{
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
        error = "config line without '=': " + line;
        return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string val = line.substr(eq + 1);
    // Whole unsigned numbers only: "abc", "2x" or "-1" are errors.
    auto toU = [&](auto &out, uint64_t max) {
        uint64_t v = 0;
        if (!parseUnsigned(val, v) || v > max) {
            error = "bad value for " + key + ": '" + val + "'";
            return false;
        }
        out = std::remove_reference_t<decltype(out)>(v);
        return true;
    };
    static constexpr std::pair<const char *, unsigned ModelConfig::*>
        kCounts[] = {{"harts", &ModelConfig::harts},
                     {"domains", &ModelConfig::domains},
                     {"pages", &ModelConfig::pages},
                     {"depth", &ModelConfig::depthLimit},
                     {"max_faults", &ModelConfig::maxFaults},
                     {"max_injects", &ModelConfig::maxInjects}};
    for (const auto &[name, field] : kCounts) {
        if (key == name)
            return toU(this->*field, UINT32_MAX);
    }
    if (key == "fault_branch")
        return toU(faultBranch, 1);
    if (key == "mutate_skip_fence")
        return toU(mutateSkipFenceNth, UINT64_MAX);
    if (key == "script") {
        if (val != "core" && val != "migrate" && val != "ras") {
            error = "unknown script '" + val + "'";
            return false;
        }
        script = val;
        return true;
    }
    if (key == "scheme") {
        for (const auto &[name, value] : kSchemeNames) {
            if (val == name) {
                scheme = value;
                return true;
            }
        }
        error = "unknown scheme '" + val + "'";
        return false;
    }
    if (key == "sites") {
        faultSites.clear();
        std::istringstream ss(val);
        std::string site;
        while (std::getline(ss, site, ','))
            if (!site.empty())
                faultSites.push_back(site);
        return true;
    }
    error = "unknown config key '" + key + "'";
    return false;
}

namespace
{

/**
 * Execute one path of the monitor-call scenario. `forced` is the
 * decision prefix to replay (nullptr = all defaults); `visited` turns
 * on explicit-state dedup (nullptr during replay/minimization).
 */
RunOutcome
runCorePath(const ModelConfig &cfg, const std::vector<Decision> *forced,
            StateSet *visited)
{
    RunOutcome out;

    // Bare harts, PMPTW cache off: the per-hart digest captures the
    // complete modelled hart state (see the header comment — this is
    // the dedup-soundness requirement, not an optimization).
    SystemFixture sys(fixtureParams(0), {.harts = cfg.harts, .schedSeed = 1},
                      cfg.scheme);
    SmpSystem &smp = sys.smp;
    SecureMonitor &monitor = sys.monitor;

    // ---- deterministic setup, outside the decision space ----------
    FaultInjector::instance().disable();
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    std::vector<DomainId> dom(cfg.domains + 1, 0);
    for (unsigned i = 1; i <= cfg.domains; ++i)
        dom[i] = sys.addDomain(regionOf(i), gmsBytes, GmsLabel::Fast);
    if (cfg.mutateSkipFenceNth != 0)
        monitor.testSkipFenceNth(cfg.mutateSkipFenceNth);

    StaleChecker checker(smp, monitor);
    for (unsigned h = 0; h < cfg.harts; ++h) {
        for (const AccessType type : {AccessType::Store, AccessType::Load})
            checker.addWatch({h, regionOf(1), regionOf(1), type, true});
        const Addr last = regionOf(cfg.domains);
        if (cfg.domains >= 2)
            checker.addWatch({h, last, last, AccessType::Load, true});
    }

    FaultBranching branching(cfg, forced, cfg.maxInjects);
    PathController &ctl = branching.ctl;
    // The Inject decision point: drive a nested monitor call from the
    // victim hart at this Posted/Delivered step.
    IpiProbe probe(smp, monitor, checker, [&](const IpiEvent &event) {
        if (ctl.injectsDone >= ctl.injectBudget ||
            event.dstHart == event.srcHart) {
            return false;
        }
        const std::string label = std::string(toString(event.phase)) +
                                  "@h" + std::to_string(event.dstHart);
        if (ctl.choose(DecisionKind::Inject, kBinaryAlts, label) != 1)
            return false;
        ++ctl.injectsDone;
        return true;
    });
    smp.setInterleaveHook(&probe);

    // ---- the interleaved script, driven through pickHart ----------
    const auto script = buildCoreScript(cfg);
    std::vector<size_t> pc(cfg.harts, 0);

    std::vector<unsigned> alts;
    smp.setSchedHook([&](unsigned) -> unsigned {
        return ctl.choose(DecisionKind::Sched, alts, "");
    });

    auto stateKey = [&]() {
        uint64_t key = monitor.stateDigest();
        for (unsigned h = 0; h < cfg.harts; ++h)
            key = fnvFold(key, monitor.hartStateDigest(h, false));
        for (size_t p : pc)
            key = fnvFold(key, p);
        key = fnvFold(key, ctl.faultsFired);
        key = fnvFold(key, ctl.injectsDone);
        return key;
    };

    unsigned opIndex = 0;
    std::vector<uint64_t> preDigests(cfg.harts);

    while (!out.violated && !ctl.truncated) {
        // Scheduling alternatives, with the sleep-set-style merge:
        // among pending harts whose next op is a state-invisible
        // Access, only the lowest id is explorable — local ops
        // commute with everything the state tracks (DESIGN.md §14).
        alts.clear();
        bool tookLocal = false;
        for (unsigned h = 0; h < cfg.harts; ++h) {
            if (pc[h] >= script[h].size())
                continue;
            if (script[h][pc[h]].local) {
                if (tookLocal) {
                    ++out.sleepMergedAlts;
                    continue;
                }
                tookLocal = true;
            }
            alts.push_back(h);
        }
        if (alts.empty())
            break;
        const unsigned hart = smp.pickHart();
        const ScriptOp &op = script[hart][pc[hart]++];
        ++opIndex;
        ++out.opsExecuted;
        smp.setCurrentHart(hart);
        branching.firedThisOp = false;

        const bool monitorOp = op.kind != OpKind::Access;
        if (monitorOp)
            rollbackDigests(monitor, preDigests);

        MonitorResult r;
        switch (op.kind) {
          case OpKind::Switch:
            r = monitor.switchTo(dom[op.dom]);
            break;
          case OpKind::SetPerm:
            r = monitor.setPerm(dom[op.dom], op.addr, op.perm);
            break;
          case OpKind::AddGms:
            r = monitor.addGms(dom[op.dom],
                               {op.addr, op.size, op.perm, op.label});
            break;
          case OpKind::RemoveGms:
            r = monitor.removeGms(dom[op.dom], op.addr);
            break;
          case OpKind::SetLabel:
            r = monitor.setLabel(dom[op.dom], op.addr, op.label);
            break;
          case OpKind::Share:
            r = monitor.shareGms(dom[op.dom], op.addr, dom[op.peer],
                                 op.perm);
            break;
          case OpKind::Access:
            // Outcome deliberately unjudged: fail-closed denials are
            // legal at any point; stale *grants* are the checker's
            // job, judged against its canonical oracle.
            smp.hart(hart).access(op.addr, op.type);
            break;
        }

        const std::string where = "h" + std::to_string(hart) + ":" +
                                  op.name + " (op #" +
                                  std::to_string(opIndex) + ")";

        // ---- per-state checks -------------------------------------
        if (const Breach b = auditOp(
                monitor, checker, probe,
                {.result = monitorOp ? &r : nullptr,
                 .pre = monitorOp ? &preDigests : nullptr,
                 .convergence = monitorOp && r.ok,
                 .faultFired = branching.firedThisOp,
                 .where = where})) {
            recordViolation(out, b.kind, b.what, opIndex, stateKey());
            break;
        }

        // ---- explicit-state dedup (new territory only) ------------
        if (ctl.pastPrefix() && !ctl.divergence) {
            ++out.newTransitions;
            if (visited != nullptr &&
                !visited->insert(stateKey()).second) {
                out.deduped = true;
                break;
            }
        }
    }

    finishPath(ctl, out, false);
    if (!out.violated)
        out.finalDigest = stateKey();
    smp.setInterleaveHook(nullptr);
    smp.setSchedHook(nullptr);
    return out;
}

/**
 * Execute one path of the two-host live-migration scenario: a single
 * migration attempt with every migrate.* FAULT_POINT hit enumerated
 * as a binary branch. Checks the cross-system no-dual-grant oracle,
 * digest-exact abort restore, and commit/stranded grant placement.
 */
RunOutcome
runMigratePath(const ModelConfig &cfg,
               const std::vector<Decision> *forced)
{
    RunOutcome out;

    SystemFixture srcHost(fixtureParams(0), {.harts = 1}, cfg.scheme);
    SystemFixture dstHost(fixtureParams(0), {.harts = 1}, cfg.scheme);
    SecureMonitor &src = srcHost.monitor;
    SecureMonitor &dst = dstHost.monitor;

    FaultInjector::instance().disable();

    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    const DomainId d =
        srcHost.addDomain(regionOf(1), gmsBytes, GmsLabel::Fast);
    // A recognizable memory image so checkpoint verification bites.
    for (Addr a = regionOf(1); a < regionOf(1) + gmsBytes; a += 512)
        srcHost.smp.mem().write64(a, a ^ 0x5a5a5a5a5a5a5a5aULL);

    CrossSystemOracle oracle(src, dst);
    MigrateConfig mcfg;
    mcfg.maxRetries = 2;
    mcfg.backoffCycles = 50;
    mcfg.frameBytes = 16384;
    MigrationEngine engine(src, dst, mcfg, "migrate_verify");
    engine.setOracle(&oracle);

    FaultBranching branching(cfg, forced, 0);
    PathController &ctl = branching.ctl;

    const MigrateResult res = engine.migrate(d, /*nonce=*/1);
    ++out.opsExecuted;

    if (const Breach b = judgeMigration(res, src, d, dst, oracle))
        recordViolation(out, b.kind, b.what, 0, 0);

    finishPath(ctl, out, true);
    uint64_t key =
        fnvFold(src.stateDigest(), dst.stateDigest());
    out.finalDigest = fnvFold(key, ctl.faultsFired);
    if (out.violated)
        out.violation.stateDigest = out.finalDigest;
    return out;
}

/**
 * Execute one path of the RAS containment scenario: two poison/report
 * rounds whose placement (a victim enclave's data page, a pmpte frame
 * of a live PMP Table, an unowned free frame, a monitor-private page)
 * is enumerated as a decision, with monitor.destroy_domain /
 * monitor.heal_table FAULT_POINT hits branched to cover every failed
 * containment. Checks the blast-radius contract (only the owning
 * domain dies, self-heals keep the measurement and re-point the root,
 * monitor poison degrades exactly the whole host), digest-exact
 * rollback of failed containments, and quarantine idempotency.
 */
RunOutcome
runRasPath(const ModelConfig &cfg, const std::vector<Decision> *forced)
{
    RunOutcome out;

    SystemFixture sys(fixtureParams(0),
                      {.harts = cfg.harts > 0 ? cfg.harts : 1, .schedSeed = 1},
                      cfg.scheme);
    SmpSystem &smp = sys.smp;
    SecureMonitor &monitor = sys.monitor;

    FaultInjector::instance().disable();
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    std::vector<DomainId> dom(cfg.domains + 1, 0);
    // Slow label: slow GMSs live in the PMP Table under both the pmpt
    // and hpmp schemes, so the pmpte-frame blast-radius class exists
    // everywhere tables exist.
    for (unsigned i = 1; i <= cfg.domains; ++i)
        dom[i] = sys.addDomain(regionOf(i), gmsBytes, GmsLabel::Slow);

    FaultBranching branching(cfg, forced, 0);
    PathController &ctl = branching.ctl;

    auto stateKey = [&]() {
        uint64_t key = monitor.stateDigest();
        key = fnvFold(key, monitor.quarantinedPages());
        key = fnvFold(key, monitor.rasFatal() ? 1 : 0);
        key = fnvFold(key, ctl.faultsFired);
        return key;
    };

    unsigned opIndex = 0;
    // The first breach ends the path, stamped with the state key then.
    auto violate = [&](const Breach &b, const std::string &after = "") {
        if (b && !out.violated)
            recordViolation(out, b.kind, b.what + after, opIndex, stateKey());
        return bool(b);
    };

    // Two poison/report rounds so the post-containment state (healed
    // table, contained victim, degraded host) is itself poked again.
    ContainmentAudit audit(monitor);
    for (unsigned round = 0; round < 2 && !out.violated && !ctl.truncated;
         ++round) {
        ++opIndex;
        const std::string rtag = "#r" + std::to_string(round);

        // The placement decision: which blast-radius class this
        // round's poison lands in. Alternatives derive from the live
        // state (a contained victim removes its data-page class).
        std::vector<unsigned> live, tabled;
        for (unsigned i = 1; i <= cfg.domains; ++i) {
            if (!monitor.domainExists(dom[i]))
                continue;
            live.push_back(i);
            const PmpTable *t = monitor.tablePeek(dom[i]);
            if (t != nullptr && !t->tablePages().empty())
                tabled.push_back(i);
        }
        std::vector<unsigned> classes;
        if (!live.empty())
            classes.push_back(0); // enclave data page
        if (!tabled.empty())
            classes.push_back(1); // pmpte frame of a live table
        classes.push_back(2);     // unowned free frame
        classes.push_back(3);     // monitor-private page
        const unsigned cls = ctl.choose(DecisionKind::Inject, classes,
                                        "ras_place" + rtag);
        const std::string where = "ras class " + std::to_string(cls) +
                                  " (op #" + std::to_string(opIndex) + ")";
        const std::string after = " after " + where;

        Addr target = 0;
        unsigned victim = 0;
        MonitorValue<AttestationReport> preAttest;
        switch (cls) {
          case 0: {
            victim = ctl.choose(DecisionKind::Inject, live,
                                "ras_victim" + rtag);
            target = regionOf(victim) + 0x40;
            smp.mem().poisonLine(target);
            // Consume through a real access first when the victim can
            // run: the poisoned line must surface as a MachineCheck
            // naming the line, never as data.
            if (!monitor.rasFatal()) {
                const MonitorResult sw = monitor.switchTo(dom[victim]);
                if (sw.ok) {
                    violate(ContainmentAudit::consumption(
                                smp.hart(0).access(target, AccessType::Load),
                                target),
                            after);
                }
            }
            break;
          }
          case 1: {
            victim = ctl.choose(DecisionKind::Inject, tabled,
                                "ras_victim" + rtag);
            const std::vector<Addr> &frames =
                monitor.tablePeek(dom[victim])->tablePages();
            std::vector<unsigned> frameAlts{0};
            if (frames.size() > 1)
                frameAlts.push_back(unsigned(frames.size() - 1));
            const unsigned fi = ctl.choose(
                DecisionKind::Inject, frameAlts, "ras_frame" + rtag);
            target = frames[fi] + 0x80;
            preAttest = monitor.attestDomain(dom[victim], 7);
            smp.mem().poisonLine(target);
            break;
          }
          case 2:
            // The same unowned frame every round, so a round-2 repeat
            // exercises cross-round AlreadyQuarantined idempotency.
            target = regionOf(cfg.domains + 1) + 0x200;
            smp.mem().poisonLine(target);
            break;
          default: {
            // Highest non-table, non-quarantined monitor-private page
            // (pmpte frames bump-allocate from the low end).
            Addr page = monitor.config().monitorBase +
                        monitor.config().monitorSize;
            while (page > monitor.config().monitorBase) {
                page -= kPageSize;
                if (monitor.pageQuarantined(page))
                    continue;
                bool isTable = false;
                for (unsigned i : live) {
                    const PmpTable *t = monitor.tablePeek(dom[i]);
                    if (t != nullptr && t->isTablePage(page)) {
                        isTable = true;
                        break;
                    }
                }
                if (!isTable)
                    break;
            }
            target = page + 0x100;
            smp.mem().poisonLine(target);
            break;
          }
        }
        if (out.violated)
            break;

        constexpr PoisonClass kPlacement[] = {
            PoisonClass::Data, PoisonClass::Pmpte, PoisonClass::Free,
            PoisonClass::Monitor};
        audit.before(kPlacement[cls], target, victim ? dom[victim] : 0,
                     cls == 1 ? monitor.tablePeek(dom[victim])->rootPa() : 0);
        ++out.opsExecuted;
        const MonitorValue<RasOutcome> mcv =
            monitor.handleMachineCheck(target);
        // A fresh containment gets its class's follow-up probe.
        if (!violate(audit.after(mcv), after) && mcv.ok &&
            mcv.value != RasOutcome::AlreadyQuarantined) {
            if (cls == 1 && mcv.value == RasOutcome::HealedTable) {
                violate(audit.healAttestation(
                            &preAttest, monitor.attestDomain(dom[victim], 7),
                            7),
                        after);
            } else if (cls == 2) {
                // Immediate idempotency probe.
                audit.before(PoisonClass::Free, target);
                violate(audit.after(monitor.handleMachineCheck(target)), after);
            } else if (cls == 3) {
                const MonitorResult probe = monitor.switchTo(dom[1]);
                violate(ContainmentAudit::degradedCall(probe), after);
            }
        }
        if (!out.violated)
            violate(auditInvariants(monitor, where));
    }
    if (!out.violated)
        violate(audit.finish());

    finishPath(ctl, out, true);
    if (!out.violated)
        out.finalDigest = stateKey();
    return out;
}

} // namespace

bool
ModelConfig::validate(std::string &error) const
{
    if (script == "core" && (harts < 2 || domains < 1)) {
        error = "the core script needs harts >= 2 and domains >= 1 (got "
                "harts=" + std::to_string(harts) +
                " domains=" + std::to_string(domains) + ")";
        return false;
    }
    if (script == "ras" && domains < 1) {
        error = "the ras script needs domains >= 1 (got domains=0)";
        return false;
    }
    return true;
}

RunOutcome
runPath(const ModelConfig &cfg, const std::vector<Decision> *forced,
        StateSet *visited)
{
    std::string error;
    panic_if(!cfg.validate(error), "invalid model config: %s",
             error.c_str());
    if (cfg.script == "migrate")
        return runMigratePath(cfg, forced);
    if (cfg.script == "ras")
        return runRasPath(cfg, forced);
    return runCorePath(cfg, forced, visited);
}

} // namespace hpmp::verify
