#include "verify/harness.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>

#include "base/addr.h"
#include "base/fault_inject.h"
#include "base/hash.h"
#include "base/logging.h"
#include "core/params.h"
#include "core/smp.h"
#include "migrate/migration.h"
#include "monitor/invariants.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"

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

Addr
extraRegionOf(unsigned enclave)
{
    return regionOf(enclave) + 32_MiB;
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
        if (alts.size() == 1)
            return alts[0];
        if (truncated)
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
                d.altIndex = 0;
            } else {
                d.altIndex = f.altIndex;
            }
        } else {
            d.altIndex = 0;
        }
        d.value = alts[d.altIndex];
        made.push_back(d);
        return d.value;
    }
};

const std::vector<unsigned> kBinaryAlts{0, 1};

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

// ---- interleave hook: stale checker + nested-call injection -------

class VerifyHook : public InterleaveHook
{
  public:
    VerifyHook(SmpSystem &smp, SecureMonitor &monitor,
               StaleChecker &checker, PathController &ctl)
        : smp_(smp), monitor_(monitor), checker_(checker), ctl_(ctl)
    {
    }

    void
    onIpiStep(const IpiEvent &event) override
    {
        checker_.onIpiStep(event);
        switch (event.phase) {
          case IpiPhase::WindowBegin:
            ++openWindows_;
            break;
          case IpiPhase::WindowEnd:
            --openWindows_;
            break;
          case IpiPhase::Posted:
          case IpiPhase::Delivered:
            maybeInject(event);
            break;
          default:
            break;
        }
    }

    int openWindows() const { return openWindows_; }
    const std::string &violation() const { return violation_; }

  private:
    /**
     * Decision point: drive a nested monitor call from the victim
     * hart mid-window. The global lock is held by the initiator, so
     * the nested call must bounce with LockContended before touching
     * any state — anything else is a violation.
     */
    void
    maybeInject(const IpiEvent &event)
    {
        if (ctl_.injectsDone >= ctl_.injectBudget)
            return;
        if (event.dstHart == event.srcHart)
            return;
        const std::string label = std::string(toString(event.phase)) +
                                  "@h" + std::to_string(event.dstHart);
        if (ctl_.choose(DecisionKind::Inject, kBinaryAlts, label) != 1)
            return;
        ++ctl_.injectsDone;
        const unsigned saved = smp_.currentHart();
        smp_.setCurrentHart(event.dstHart);
        const MonitorResult r = monitor_.switchTo(monitor_.currentDomain());
        smp_.setCurrentHart(saved);
        if (r.ok || r.code != MonitorError::LockContended) {
            violation_ = "nested switchTo from hart " +
                         std::to_string(event.dstHart) + " at " +
                         toString(event.phase) +
                         " did not bounce LockContended (got " +
                         std::string(r.ok ? "ok" : toString(r.code)) +
                         ")";
        }
    }

    SmpSystem &smp_;
    SecureMonitor &monitor_;
    StaleChecker &checker_;
    PathController &ctl_;
    int openWindows_ = 0;
    std::string violation_;
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
    Perm perm;
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
    const unsigned last = cfg.domains;
    const Addr pageLast = regionOf(last);

    std::vector<std::vector<ScriptOp>> script(cfg.harts);

    auto access = [](Addr a, AccessType t, const char *n) {
        ScriptOp op;
        op.kind = OpKind::Access;
        op.addr = a;
        op.type = t;
        op.name = n;
        op.local = true;
        return op;
    };

    // Hart 0: the initiator-heavy path — switch in, revoke a
    // permission (the stale-grant workhorse), share + unshare.
    {
        auto &s = script[0];
        ScriptOp sw;
        sw.kind = OpKind::Switch;
        sw.dom = 1;
        sw.name = "switch_d1";
        s.push_back(sw);

        ScriptOp sp;
        sp.kind = OpKind::SetPerm;
        sp.dom = 1;
        sp.addr = pageA;
        sp.perm = Perm::ro();
        sp.name = "revoke_w_A";
        s.push_back(sp);

        s.push_back(access(pageA, AccessType::Store, "store_A"));

        if (cfg.domains >= 2) {
            ScriptOp sh;
            sh.kind = OpKind::Share;
            sh.dom = 1;
            sh.peer = 2;
            sh.addr = pageA;
            sh.perm = Perm::ro();
            sh.name = "share_A_d2";
            s.push_back(sh);

            ScriptOp rm;
            rm.kind = OpKind::RemoveGms;
            rm.dom = 2;
            rm.addr = pageA;
            rm.name = "unshare_A_d2";
            s.push_back(rm);
        } else {
            ScriptOp ad;
            ad.kind = OpKind::AddGms;
            ad.dom = 1;
            ad.addr = extraRegionOf(1);
            ad.size = gmsBytes;
            ad.perm = Perm::rw();
            ad.name = "add_extra";
            s.push_back(ad);

            ScriptOp rm;
            rm.kind = OpKind::RemoveGms;
            rm.dom = 1;
            rm.addr = extraRegionOf(1);
            rm.name = "remove_extra";
            s.push_back(rm);
        }
    }

    // Hart 1: a victim that also initiates — reads the revoked page,
    // switches domains, relabels.
    if (cfg.harts >= 2) {
        auto &s = script[1];
        s.push_back(access(pageA, AccessType::Load, "load_A"));

        ScriptOp sw;
        sw.kind = OpKind::Switch;
        sw.dom = last;
        sw.name = "switch_last";
        s.push_back(sw);

        s.push_back(access(pageLast, AccessType::Store, "store_last"));

        ScriptOp sl;
        sl.kind = OpKind::SetLabel;
        sl.dom = last;
        sl.addr = pageLast;
        sl.label = GmsLabel::Slow;
        sl.name = "relabel_last";
        s.push_back(sl);
    }

    // Further harts: light probes + a switch, to scale interleavings.
    for (unsigned h = 2; h < cfg.harts; ++h) {
        auto &s = script[h];
        s.push_back(access(pageA, AccessType::Load, "load_A"));
        ScriptOp sw;
        sw.kind = OpKind::Switch;
        sw.dom = (h % cfg.domains) + 1;
        sw.name = "switch_mod";
        s.push_back(sw);
        s.push_back(access(pageLast, AccessType::Load, "load_last"));
    }
    return script;
}

const std::vector<std::string> &
defaultCoreSites()
{
    static const std::vector<std::string> sites = {
        "monitor.add_gms", "monitor.remove_gms", "monitor.set_label",
        "monitor.set_perm", "monitor.share_gms", "monitor.switch",
        "smp.ipi_ack",     "smp.ipi_deliver",
    };
    return sites;
}

const std::vector<std::string> &
defaultMigrateSites()
{
    static const std::vector<std::string> sites = {
        "migrate.ack_lost",      "migrate.checkpoint_torn",
        "migrate.commit_crash",  "migrate.dest_attest",
        "migrate.frame_corrupt", "migrate.frame_drop",
        "migrate.frame_dup",
    };
    return sites;
}

const std::vector<std::string> &
defaultRasSites()
{
    // The two containment workhorses handleMachineCheck() delegates
    // to: branching them enumerates every failed-containment path, and
    // the harness then demands a bit-identical rollback.
    static const std::vector<std::string> sites = {
        "monitor.destroy_domain",
        "monitor.heal_table",
    };
    return sites;
}

} // namespace

std::vector<std::string>
ModelConfig::effectiveSites() const
{
    if (!faultSites.empty())
        return faultSites;
    if (script == "migrate")
        return defaultMigrateSites();
    if (script == "ras")
        return defaultRasSites();
    return defaultCoreSites();
}

std::vector<std::string>
ModelConfig::configLines() const
{
    std::vector<std::string> lines;
    lines.push_back("harts=" + std::to_string(harts));
    lines.push_back("domains=" + std::to_string(domains));
    lines.push_back("pages=" + std::to_string(pages));
    lines.push_back(std::string("scheme=") +
                    (scheme == IsolationScheme::Hpmp       ? "hpmp"
                     : scheme == IsolationScheme::PmpTable ? "pmpt"
                                                           : "pmp"));
    lines.push_back("script=" + script);
    lines.push_back("depth=" + std::to_string(depthLimit));
    lines.push_back("fault_branch=" + std::to_string(faultBranch ? 1 : 0));
    lines.push_back("max_faults=" + std::to_string(maxFaults));
    lines.push_back("max_injects=" + std::to_string(maxInjects));
    std::string sites;
    for (const std::string &s : effectiveSites()) {
        if (!sites.empty())
            sites += ",";
        sites += s;
    }
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
    auto toU = [&](unsigned &out) {
        out = unsigned(std::strtoul(val.c_str(), nullptr, 0));
        return true;
    };
    if (key == "harts")
        return toU(harts);
    if (key == "domains")
        return toU(domains);
    if (key == "pages")
        return toU(pages);
    if (key == "depth")
        return toU(depthLimit);
    if (key == "max_faults")
        return toU(maxFaults);
    if (key == "max_injects")
        return toU(maxInjects);
    if (key == "fault_branch") {
        faultBranch = val != "0";
        return true;
    }
    if (key == "mutate_skip_fence") {
        mutateSkipFenceNth = std::strtoull(val.c_str(), nullptr, 0);
        return true;
    }
    if (key == "script") {
        script = val;
        return true;
    }
    if (key == "scheme") {
        if (val == "hpmp") {
            scheme = IsolationScheme::Hpmp;
        } else if (val == "pmpt") {
            scheme = IsolationScheme::PmpTable;
        } else if (val == "pmp") {
            scheme = IsolationScheme::Pmp;
        } else {
            error = "unknown scheme '" + val + "'";
            return false;
        }
        return true;
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

RunOutcome
runCorePath(const ModelConfig &cfg, const std::vector<Decision> *forced,
            StateSet *visited)
{
    panic_if(cfg.harts < 2, "core scenario wants >= 2 harts");
    panic_if(cfg.domains < 1, "core scenario wants >= 1 domain");
    RunOutcome out;

    // Bare harts, PMPTW cache off: the per-hart digest captures the
    // complete modelled hart state (see the header comment — this is
    // the dedup-soundness requirement, not an optimization).
    MachineParams mp = rocketParams();
    mp.pmptwEntries = 0;
    SmpParams sp;
    sp.harts = cfg.harts;
    sp.schedSeed = 1;
    SmpSystem smp(mp, sp);
    MonitorConfig mc;
    mc.scheme = cfg.scheme;
    SecureMonitor monitor(smp, mc);
    for (unsigned h = 0; h < cfg.harts; ++h) {
        smp.hart(h).setPriv(PrivMode::Supervisor);
        smp.hart(h).setBare();
    }

    // ---- deterministic setup, outside the decision space ----------
    FaultInjector::instance().disable();
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    std::vector<DomainId> dom(cfg.domains + 1, 0);
    for (unsigned i = 1; i <= cfg.domains; ++i) {
        dom[i] = monitor.createDomain();
        const MonitorResult r = monitor.addGms(
            dom[i],
            {regionOf(i), gmsBytes, Perm::rw(), GmsLabel::Fast});
        panic_if(!r.ok, "model setup addGms failed: %s",
                 r.error.c_str());
    }
    if (cfg.mutateSkipFenceNth != 0)
        monitor.testSkipFenceNth(cfg.mutateSkipFenceNth);

    StaleChecker checker(smp, monitor);
    for (unsigned h = 0; h < cfg.harts; ++h) {
        checker.addWatch({h, regionOf(1), regionOf(1),
                          AccessType::Store, true});
        checker.addWatch({h, regionOf(1), regionOf(1),
                          AccessType::Load, true});
        if (cfg.domains >= 2) {
            checker.addWatch({h, regionOf(cfg.domains),
                              regionOf(cfg.domains), AccessType::Load,
                              true});
        }
    }

    FaultBranching branching(cfg, forced, cfg.maxInjects);
    PathController &ctl = branching.ctl;
    VerifyHook hook(smp, monitor, checker, ctl);
    smp.setInterleaveHook(&hook);

    // ---- the interleaved script, driven through pickHart ----------
    const auto script = buildCoreScript(cfg);
    std::vector<size_t> pc(cfg.harts, 0);

    std::vector<unsigned> alts;
    smp.setSchedHook([&](unsigned) -> unsigned {
        return ctl.choose(DecisionKind::Sched, alts, "");
    });

    auto stateKey = [&]() {
        uint64_t key = monitor.stateDigest(true);
        for (unsigned h = 0; h < cfg.harts; ++h)
            key = fnvFold(key, monitor.hartStateDigest(h, true, false,
                                                       true));
        for (size_t p : pc)
            key = fnvFold(key, p);
        key = fnvFold(key, ctl.faultsFired);
        key = fnvFold(key, ctl.injectsDone);
        return key;
    };

    unsigned opIndex = 0;
    std::vector<uint64_t> preDigests(cfg.harts);
    auto violate = [&](const std::string &kind,
                       const std::string &desc) {
        out.violated = true;
        out.violation.kind = kind;
        out.violation.description = desc;
        out.violation.opIndex = opIndex;
        out.violation.stateDigest = stateKey();
        out.finalDigest = out.violation.stateDigest;
    };

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
        if (monitorOp) {
            for (unsigned h = 0; h < cfg.harts; ++h)
                preDigests[h] =
                    monitor.hartStateDigest(h, true, false, true);
        }

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
        if (!hook.violation().empty()) {
            violate("nested_call", hook.violation() + " during " + where);
            break;
        }
        if (hook.openWindows() != 0) {
            violate("unclosed_window",
                    "shootdown window still open after " + where);
            break;
        }
        if (monitorOp && !r.ok) {
            for (unsigned h = 0; h < cfg.harts; ++h) {
                const uint64_t now =
                    monitor.hartStateDigest(h, true, false, true);
                if (now != preDigests[h]) {
                    violate("rollback_divergence",
                            "failed call (" + std::string(toString(r.code)) +
                                ") left hart " + std::to_string(h) +
                                " digest changed after " + where);
                    break;
                }
            }
            if (out.violated)
                break;
        }
        if (monitorOp && r.ok) {
            if (branching.firedThisOp) {
                violate("fault_swallowed",
                        "an injected fault fired but the call "
                        "committed ok after " +
                            where);
                break;
            }
            const uint64_t ref =
                monitor.hartStateDigest(0, true, false, false);
            for (unsigned h = 1; h < cfg.harts; ++h) {
                if (monitor.hartStateDigest(h, true, false, false) !=
                    ref) {
                    violate("convergence_divergence",
                            "hart " + std::to_string(h) +
                                " digest disagrees with hart 0 after "
                                "committed " +
                                where);
                    break;
                }
            }
            if (out.violated)
                break;
        }
        if (checker.failed()) {
            violate("stale_checker", checker.failure());
            break;
        }
        if (!checker.checkQuiescent()) {
            violate("stale_checker", checker.failure());
            break;
        }
        const std::string inv = checkIsolationInvariants(monitor);
        if (!inv.empty()) {
            violate("invariant", inv + " after " + where);
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

    out.decisions = std::move(ctl.made);
    out.truncated = ctl.truncated;
    out.divergence = ctl.divergence;
    out.divergenceWhy = ctl.divergenceWhy;
    if (!out.violated)
        out.finalDigest = stateKey();
    smp.setInterleaveHook(nullptr);
    smp.setSchedHook(nullptr);
    return out;
}

RunOutcome
runMigratePath(const ModelConfig &cfg,
               const std::vector<Decision> *forced)
{
    RunOutcome out;

    MachineParams mp = rocketParams();
    mp.pmptwEntries = 0;
    SmpParams sp;
    sp.harts = 1;
    SmpSystem srcSys(mp, sp), dstSys(mp, sp);
    MonitorConfig mc;
    mc.scheme = cfg.scheme;
    SecureMonitor src(srcSys, mc), dst(dstSys, mc);
    for (SmpSystem *sys : {&srcSys, &dstSys}) {
        sys->hart(0).setPriv(PrivMode::Supervisor);
        sys->hart(0).setBare();
    }

    FaultInjector::instance().disable();

    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    const DomainId d = src.createDomain();
    MonitorResult r = src.addGms(
        d, {regionOf(1), gmsBytes, Perm::rw(), GmsLabel::Fast});
    panic_if(!r.ok, "migrate setup addGms failed: %s", r.error.c_str());
    // A recognizable memory image so checkpoint verification bites.
    for (Addr a = regionOf(1); a < regionOf(1) + gmsBytes; a += 512)
        srcSys.mem().write64(a, a ^ 0x5a5a5a5a5a5a5a5aULL);

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

    auto violate = [&](const std::string &kind,
                       const std::string &desc) {
        out.violated = true;
        out.violation.kind = kind;
        out.violation.description = desc;
        out.violation.opIndex = 0;
        uint64_t key = fnvFold(src.stateDigest(true),
                               dst.stateDigest(true));
        key = fnvFold(key, ctl.faultsFired);
        out.violation.stateDigest = key;
    };

    if (oracle.failed()) {
        violate("dual_grant", oracle.failure());
    } else if (res.ok) {
        if (src.domainGrantable(d)) {
            violate("commit_state",
                    "committed migration left the source granting");
        } else if (!dst.domainGrantable(res.destId)) {
            violate("commit_state",
                    "committed migration left the destination not "
                    "granting");
        }
    } else if (res.committed || res.stranded) {
        if (src.domainGrantable(d) ||
            (res.destId != 0 && dst.domainGrantable(res.destId))) {
            violate("stranded_grant",
                    "stranded migration has a live grant (phase " +
                        std::string(toString(res.failedPhase)) + ")");
        }
    } else {
        if (res.sourcePostDigest != res.sourcePreDigest) {
            violate("abort_digest",
                    "aborted migration (phase " +
                        std::string(toString(res.failedPhase)) +
                        ") did not restore the source digest");
        } else if (!src.domainGrantable(d)) {
            violate("abort_grantable",
                    "aborted migration left the domain not grantable "
                    "on the source (phase " +
                        std::string(toString(res.failedPhase)) + ")");
        }
    }

    out.decisions = std::move(ctl.made);
    out.truncated = ctl.truncated;
    out.divergence = ctl.divergence;
    out.divergenceWhy = ctl.divergenceWhy;
    out.newTransitions = ctl.pastPrefix()
                             ? out.decisions.size() -
                                   (forced ? forced->size() : 0)
                             : 0;
    uint64_t key =
        fnvFold(src.stateDigest(true), dst.stateDigest(true));
    out.finalDigest = fnvFold(key, ctl.faultsFired);
    if (out.violated)
        out.violation.stateDigest = out.finalDigest;
    return out;
}

RunOutcome
runRasPath(const ModelConfig &cfg, const std::vector<Decision> *forced)
{
    panic_if(cfg.domains < 1, "ras scenario wants >= 1 domain");
    RunOutcome out;

    MachineParams mp = rocketParams();
    mp.pmptwEntries = 0;
    SmpParams sp;
    sp.harts = cfg.harts > 0 ? cfg.harts : 1;
    sp.schedSeed = 1;
    SmpSystem smp(mp, sp);
    MonitorConfig mc;
    mc.scheme = cfg.scheme;
    SecureMonitor monitor(smp, mc);
    for (unsigned h = 0; h < sp.harts; ++h) {
        smp.hart(h).setPriv(PrivMode::Supervisor);
        smp.hart(h).setBare();
    }

    FaultInjector::instance().disable();
    const uint64_t gmsBytes = napotPages(cfg.pages) * kPageSize;
    std::vector<DomainId> dom(cfg.domains + 1, 0);
    for (unsigned i = 1; i <= cfg.domains; ++i) {
        dom[i] = monitor.createDomain();
        // Slow label: slow GMSs live in the PMP Table under both the
        // pmpt and hpmp schemes, so the pmpte-frame blast-radius class
        // exists everywhere tables exist.
        const MonitorResult r = monitor.addGms(
            dom[i],
            {regionOf(i), gmsBytes, Perm::rw(), GmsLabel::Slow});
        panic_if(!r.ok, "ras setup addGms failed: %s", r.error.c_str());
    }

    FaultBranching branching(cfg, forced, 0);
    PathController &ctl = branching.ctl;

    auto stateKey = [&]() {
        uint64_t key = monitor.stateDigest(true);
        key = fnvFold(key, monitor.quarantinedPages());
        key = fnvFold(key, monitor.rasFatal() ? 1 : 0);
        key = fnvFold(key, ctl.faultsFired);
        return key;
    };

    unsigned opIndex = 0;
    auto violate = [&](const std::string &kind,
                       const std::string &desc) {
        out.violated = true;
        out.violation.kind = kind;
        out.violation.description = desc;
        out.violation.opIndex = opIndex;
        out.violation.stateDigest = stateKey();
        out.finalDigest = out.violation.stateDigest;
    };

    // Two poison/report rounds so the post-containment state (healed
    // table, contained victim, degraded host) is itself poked again.
    bool rasFatalExpected = false;
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

        Addr target = 0;
        unsigned victim = 0;
        Addr oldRoot = 0;
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
                    const AccessOutcome acc =
                        smp.hart(0).access(target, AccessType::Load);
                    if (acc.fault != Fault::MachineCheck) {
                        violate("machine_check",
                                "load of a poisoned line returned " +
                                    std::string(toString(acc.fault)) +
                                    ", not MachineCheck");
                    } else if ((acc.poisonAddr & ~Addr(63)) !=
                               (target & ~Addr(63))) {
                        violate("machine_check",
                                "machine check blamed the wrong line");
                    }
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
            oldRoot = monitor.tablePeek(dom[victim])->rootPa();
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

        const Addr targetPage = target & ~Addr(kPageSize - 1);
        const bool fatalBefore = monitor.rasFatal();
        const bool quarBefore = monitor.pageQuarantined(targetPage);
        const uint64_t preDigest = monitor.stateDigest(true);

        ++out.opsExecuted;
        const MonitorValue<RasOutcome> mcv =
            monitor.handleMachineCheck(target);

        const std::string where =
            "ras class " + std::to_string(cls) + " (op #" +
            std::to_string(opIndex) + ")";
        if (quarBefore) {
            // Repeat report of a retired frame: an ok no-op always,
            // even after the host degraded.
            if (!mcv.ok || mcv.value != RasOutcome::AlreadyQuarantined) {
                violate("quarantine",
                        "repeat report of a retired frame was not an "
                        "ok no-op after " + where);
            } else if (monitor.stateDigest(true) != preDigest) {
                violate("quarantine",
                        "no-op repeat report changed the digest after " +
                            where);
            }
        } else if (fatalBefore) {
            // New reports after the whole-host degrade: typed RasFatal
            // denial, nothing mutated.
            if (mcv.ok || mcv.code != MonitorError::RasFatal) {
                violate("ras_fatal",
                        "report after host degrade was not a typed "
                        "RasFatal denial after " + where);
            } else if (monitor.stateDigest(true) != preDigest) {
                violate("ras_rollback",
                        "denied report changed the digest after " +
                            where);
            }
        } else if (!mcv.ok) {
            // An injected fault aborted containment: bit-identical
            // rollback, victim intact, frame not retired.
            if (monitor.stateDigest(true) != preDigest) {
                violate("ras_rollback",
                        "failed containment (" +
                            std::string(toString(mcv.code)) +
                            ") left the digest changed after " + where);
            } else if (monitor.pageQuarantined(targetPage)) {
                violate("ras_rollback",
                        "failed containment still retired the frame "
                        "after " + where);
            } else if ((cls == 0 || cls == 1) &&
                       !monitor.domainExists(dom[victim])) {
                violate("ras_rollback",
                        "failed containment destroyed the victim "
                        "anyway after " + where);
            } else if (cls == 1 &&
                       monitor.tablePeek(dom[victim])->rootPa() !=
                           oldRoot) {
                violate("ras_rollback",
                        "failed heal re-pointed the table root after " +
                            where);
            }
        } else {
            switch (cls) {
              case 0:
                if (mcv.value != RasOutcome::ContainedDomain) {
                    violate("blast_radius",
                            "data-page poison resolved as " +
                                std::string(toString(mcv.value)) +
                                " after " + where);
                } else if (monitor.domainExists(dom[victim])) {
                    violate("blast_radius",
                            "victim survived its own containment "
                            "after " + where);
                } else if (!monitor.pageQuarantined(targetPage)) {
                    violate("quarantine",
                            "contained frame was not retired after " +
                                where);
                }
                break;
              case 1:
                if (mcv.value == RasOutcome::HostFatal) {
                    // Legal escalation: out of fresh table frames.
                    rasFatalExpected = true;
                    break;
                }
                if (mcv.value != RasOutcome::HealedTable) {
                    violate("heal",
                            "pmpte poison resolved as " +
                                std::string(toString(mcv.value)) +
                                " after " + where);
                    break;
                }
                if (!monitor.domainExists(dom[victim]) ||
                    monitor.tablePeek(dom[victim]) == nullptr) {
                    violate("heal",
                            "self-heal lost the domain after " + where);
                } else if (monitor.tablePeek(dom[victim])->rootPa() ==
                           oldRoot) {
                    violate("heal",
                            "healed table still points at the old "
                            "root after " + where);
                } else if (!monitor.pageQuarantined(targetPage)) {
                    violate("quarantine",
                            "healed frame was not retired after " +
                                where);
                } else {
                    const MonitorValue<AttestationReport> post =
                        monitor.attestDomain(dom[victim], 7);
                    if (!preAttest.ok || !post.ok ||
                        post.value.measurement !=
                            preAttest.value.measurement) {
                        violate("heal",
                                "self-heal changed the measurement "
                                "after " + where);
                    } else if (!monitor.attestor().verify(post.value,
                                                          7)) {
                        violate("heal",
                                "post-heal report does not verify "
                                "after " + where);
                    }
                }
                break;
              case 2:
                if (mcv.value != RasOutcome::QuarantinedFree) {
                    violate("blast_radius",
                            "free-frame poison resolved as " +
                                std::string(toString(mcv.value)) +
                                " after " + where);
                } else if (!monitor.pageQuarantined(targetPage)) {
                    violate("quarantine",
                            "free frame was not retired after " +
                                where);
                } else {
                    // Immediate idempotency probe.
                    const uint64_t qd = monitor.stateDigest(true);
                    const MonitorValue<RasOutcome> again =
                        monitor.handleMachineCheck(target);
                    if (!again.ok ||
                        again.value != RasOutcome::AlreadyQuarantined) {
                        violate("quarantine",
                                "re-report of a retired frame was not "
                                "an ok no-op after " + where);
                    } else if (monitor.stateDigest(true) != qd) {
                        violate("quarantine",
                                "no-op re-report changed the digest "
                                "after " + where);
                    }
                }
                break;
              default:
                if (mcv.value != RasOutcome::HostFatal) {
                    violate("ras_fatal",
                            "monitor-page poison resolved as " +
                                std::string(toString(mcv.value)) +
                                " after " + where);
                    break;
                }
                rasFatalExpected = true;
                if (!monitor.rasFatal()) {
                    violate("ras_fatal",
                            "HostFatal did not latch rasFatal after " +
                                where);
                } else {
                    const MonitorResult probe =
                        monitor.switchTo(dom[1]);
                    if (probe.ok ||
                        probe.code != MonitorError::RasFatal) {
                        violate("ras_fatal",
                                "mutating call after host degrade was "
                                "not a typed RasFatal denial after " +
                                    where);
                    }
                }
                break;
            }
            // Blast-radius audit: every domain live before the report
            // survives, except a data-page containment's own victim.
            if (!out.violated) {
                for (unsigned i : live) {
                    if (cls == 0 && i == victim)
                        continue;
                    if (!monitor.domainExists(dom[i])) {
                        violate("blast_radius",
                                "containment killed bystander domain "
                                "index " + std::to_string(i) +
                                    " after " + where);
                        break;
                    }
                }
            }
        }
        if (!out.violated) {
            const std::string inv = checkIsolationInvariants(monitor);
            if (!inv.empty())
                violate("invariant", inv + " after " + where);
        }
    }

    if (!out.violated && monitor.rasFatal() && !rasFatalExpected) {
        violate("ras_fatal",
                "host degraded without a monitor-region poison event");
    }

    out.decisions = std::move(ctl.made);
    out.truncated = ctl.truncated;
    out.divergence = ctl.divergence;
    out.divergenceWhy = ctl.divergenceWhy;
    out.newTransitions = ctl.pastPrefix()
                             ? out.decisions.size() -
                                   (forced ? forced->size() : 0)
                             : 0;
    if (!out.violated)
        out.finalDigest = stateKey();
    return out;
}

RunOutcome
runPath(const ModelConfig &cfg, const std::vector<Decision> *forced,
        StateSet *visited)
{
    if (cfg.script == "migrate")
        return runMigratePath(cfg, forced);
    if (cfg.script == "ras")
        return runRasPath(cfg, forced);
    return runCorePath(cfg, forced, visited);
}

} // namespace hpmp::verify
