#include "verify/chaos_engine.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>

#include "base/fault_inject.h"
#include "base/frame_alloc.h"
#include "base/hash.h"
#include "base/stats.h"
#include "core/smp.h"
#include "core/virt_machine.h"
#include "hpmp/iopmp.h"
#include "mem/scrubber.h"
#include "migrate/migration.h"
#include "monitor/invariants.h"
#include "monitor/secure_monitor.h"
#include "monitor/stale_checker.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "pt/page_table.h"
#include "pt/pte.h"
#include "verify/contracts.h"

namespace hpmp::verify
{

namespace
{

/**
 * Each domain draws its regions from a 64 MiB window keyed by its id,
 * far above the monitor region. Windows bound PMP-table growth (a few
 * leaf pages per domain) and make same-window collisions — rejected
 * overlapping registrations — a regularly exercised path.
 */
constexpr Addr kWindowBase = 256_MiB;
constexpr uint64_t kWindowSize = 64_MiB;
constexpr unsigned kWindows = 10;
constexpr unsigned kMaxDomains = 6;
/**
 * High enough that a domain's fast-GMS count regularly exceeds the
 * Hpmp segment budget (numEntries - 3 = 13), so the demote-to-table
 * degraded mode is exercised, not just unit-tested.
 */
constexpr unsigned kMaxGmsPerDomain = 24;
constexpr DomainId kBogusDomain = 777777;

Addr
windowOf(DomainId id)
{
    return kWindowBase + (id % kWindows) * kWindowSize;
}

/**
 * Campaign machines run with the PMPTW-Cache enabled (the paper keeps
 * it off by default): the monitor must keep the cached leaf pmptes
 * coherent across every shootdown and rollback path, and the stale
 * probes audit exactly that. This is also what makes the benign
 * "pmptw_cache.fill" drop site reachable for the coverage gate.
 */
constexpr unsigned kChaosPmptwEntries = 8;

/**
 * A random permission. Guest leaf perms (`leaf`) never include none():
 * a V=1 RWX=0 PTE is a pointer, so they draw execute-only instead.
 */
Perm
randomPerm(Choices &choices, bool leaf = false)
{
    switch (choices.pick(DecisionKind::Op, 5, "perm")) {
      case 0: return Perm::rw();
      case 1: return Perm::ro();
      case 2: return Perm::rx();
      case 3: return leaf ? Perm::xo() : Perm::none();
      default: return Perm::rwx();
    }
}

uint64_t
randomNapotSize(Choices &choices)
{
    // 4 KiB .. 4 MiB, biased small so many regions fit one window.
    static constexpr uint64_t sizes[] = {
        4_KiB, 4_KiB, 8_KiB, 16_KiB, 64_KiB, 256_KiB, 1_MiB, 4_MiB,
    };
    return sizes[choices.pick(DecisionKind::Op, std::size(sizes), "size")];
}

/**
 * OS-layer geometry: each hart's kernel owns a NAPOT region far above
 * the chaos windows, so domain-lifecycle chaos and OS traffic collide
 * only where the ops make them collide.
 */
constexpr Addr kKernelMemBase = 2_GiB;
constexpr uint64_t kKernelMemBytes = 32_MiB;
constexpr uint64_t kKernelMemStride = 64_MiB;
/** Watch mappings live above the mmap arena so they are never unmapped. */
constexpr Addr kWatchVaBase = 0x7f000000;

/**
 * Virt-campaign geometry (--virt): each hart's guest draws everything
 * — two nested tables, a guest table and its data pages — from a
 * 64 MiB arena far above the chaos windows and the kernel arenas. One
 * NAPOT GMS of the host domain covers all arenas, so domain switches
 * churn the guests' *physical* stage while the guest ops churn the
 * VS- and G-stages independently.
 */
constexpr Addr kVirtArenaBase = 4_GiB;
constexpr uint64_t kVirtArenaStride = 64_MiB;
constexpr uint64_t kVirtArenaSpan = 512_MiB; //!< covers up to 8 harts
constexpr Addr kVirtNptAOff = 0;
constexpr Addr kVirtNptBOff = 4_MiB;
constexpr Addr kVirtGptOff = 8_MiB;
constexpr uint64_t kVirtGptPoolBytes = 4_MiB;
constexpr Addr kVirtDataOff = 16_MiB;
constexpr unsigned kGuestPages = 8;
constexpr Addr kChaosGuestVaBase = 0x40000000;

/** One hart's guest: two switchable NPTs, a GPT, and tracked perms. */
struct HartGuest
{
    std::unique_ptr<PageTable> nptA, nptB, gpt;
    bool usingB = false;
    Addr dataBase = 0;
    std::array<Perm, kGuestPages> gptPerm;
    std::array<std::array<Perm, kGuestPages>, 2> nptPerm; //!< [A, B]

    PageTable &currentNpt() { return usingB ? *nptB : *nptA; }
    unsigned currentNptIndex() const { return usingB ? 1 : 0; }
};

/** A monitor's simulated call cycles: the campaign clock. */
uint64_t
callCycles(SecureMonitor &monitor)
{
    const Distribution *d = monitor.stats().getDist("call_cycles");
    return d ? d->sum() : 0;
}

/** Record the first failure; later ones are consequences of it. */
void
failCampaign(ChaosStats &stats, const std::string &where, const Breach &b,
             unsigned op, uint64_t key)
{
    if (stats.failed)
        return;
    stats.failed = true;
    stats.failure = where + b.what;
    stats.counterexample.violated = true;
    stats.counterexample.violation = {b.kind, stats.failure, op, key};
}

MonitorResult
asResult(const MonitorValue<RasOutcome> &outcome)
{
    return outcome.ok ? MonitorResult{}
                      : MonitorResult::fail(outcome.code, outcome.error);
}

/**
 * One campaign: the system with its layer and the op generator; the
 * checks are the shared contracts (verify/contracts.h). Every random
 * draw comes from choices_ in a fixed order (the nested-call probe
 * draws from it too), so a campaign is a pure function of its config
 * and its draws.
 */
class Campaign
{
  public:
    /** Not copyable (as its fixture is): the SmpSystem holds &probe_. */
    Campaign(const CampaignConfig &config, Choices &choices);
    ChaosStats run();

  private:
    bool is(ChaosLayer layer) const { return config_.layer == layer; }

    // ---- setup -----------------------------------------------------
    void setupOs();
    void setupWatches();
    void setupVirt();
    void registerStats(StatRegistry &registry, bool with_bus);

    // ---- helpers over the current population -----------------------
    void fail(const Breach &breach);
    uint64_t stateKey() const;
    unsigned pick(uint64_t n, const char *what)
    {
        return choices_.pick(DecisionKind::Op, n, what);
    }
    bool chance(double p, const char *what)
    {
        return choices_.chance(DecisionKind::Op, p, what);
    }
    std::vector<DomainId> live() const { return monitor_.domainIds(); }
    DomainId pickDomain(bool allow_bogus);
    Addr pickGmsBase(DomainId id);
    Gms randomGms(DomainId id);
    void snapshotDigests();
    bool isWatchPage(Addr page) const;
    Addr pickPoisonPage(DomainId id);
    std::optional<DomainId> ownerOf(Addr page) const;
    MonitorValue<RasOutcome> report(PoisonClass cls, Addr pa,
                                    DomainId victim, Addr table_root = 0);

    // ---- op families -----------------------------------------------
    MonitorResult runOp();
    MonitorResult lifecycleOp(unsigned roll);
    MonitorResult osOp();
    MonitorResult virtOp();
    MonitorResult fleetOp();
    MonitorResult rasOp();
    MonitorResult rasData();
    MonitorResult rasPmpte();
    MonitorResult rasFree();
    MonitorResult rasScrub();
    MonitorResult rasMonitor();
    MonitorResult rasSuspended();
    MonitorResult dmaOp();
    MonitorResult rootRewriteOp();

    // ---- audits ----------------------------------------------------
    bool audit(const MonitorResult &result);
    void patrol();
    void collectStats();

    const CampaignConfig &config_;
    ChaosStats stats_;
    Choices &choices_;
    SystemFixture sys_;
    SmpSystem &smp_ = sys_.smp;
    SecureMonitor &monitor_ = sys_.monitor;
    FaultInjector &injector_ = FaultInjector::instance();

    // OS layer: one kernel + address space per hart, and the
    // [base, len) regions each hart has mmapped (touch targets).
    std::vector<DomainId> kernelDomain_;
    std::vector<std::unique_ptr<Kernel>> kernels_;
    std::vector<std::unique_ptr<AddressSpace>> spaces_;
    std::vector<std::vector<std::pair<Addr, uint64_t>>> mapped_;

    StaleChecker checker_;
    IpiProbe probe_;
    std::vector<Addr> watchPas_;
    std::vector<HartGuest> guests_;

    // DMA masters behind a two-master IOPMP on one shared bus.
    IopmpUnit iopmp_;
    SharedBus dmaBus_;
    DmaEngine dma0_, dma1_;

    std::unique_ptr<Scrubber> scrub_;
    ContainmentAudit ras_;
    // Fleet campaigns: every destroyed tenant's id is remembered so
    // stale-handle probes can keep asserting the recycling contract —
    // a retired DomainId stays a typed denial forever, even after its
    // registry slot is handed to a new tenant under a new generation.
    std::vector<DomainId> retired_;

    StatRegistry seriesRegistry_;
    std::unique_ptr<StatSampler> sampler_;

    // Per-op state.
    unsigned index_ = 0;
    unsigned initiator_ = 0;
    const char *opName_ = "?";
    bool digestChecked_ = false;
    std::vector<uint64_t> pre_;
};

Campaign::Campaign(const CampaignConfig &config, Choices &choices)
    : config_(config),
      choices_(choices),
      // The interleaving derives from both the seed and the hart count.
      sys_(fixtureParams(kChaosPmptwEntries),
           {.harts = config.harts,
            .schedSeed = config.seed * 0x9E3779B97F4A7C15ULL + config.harts},
           config.scheme),
      mapped_(config.harts),
      checker_(monitor_),
      // Nested monitor calls fire from inside the shootdown window at
      // 12 % of the Posted/Delivered steps.
      probe_(monitor_, checker_,
             [this](const IpiEvent &) {
                 return !stats_.failed &&
                        choices_.chance(DecisionKind::Inject, 0.12, "nested");
             }),
      iopmp_(smp_.mem(), 2),
      dmaBus_(2),
      dma0_(iopmp_, smp_.hart(0).hier(), 0),
      // Master 1 sits on hart 1's hierarchy when there is one.
      dma1_(iopmp_, smp_.hart(config.harts > 1 ? 1 : 0).hier(), 1),
      ras_(monitor_),
      pre_(config.harts, 0)
{
    stats_.harts = config.harts;
    if (config.mutateSkipFenceNth != 0)
        monitor_.testSkipFenceNth(config.mutateSkipFenceNth);
    if (is(ChaosLayer::Os))
        setupOs();
    setupWatches();
    // Point every hart's MMU at its own address space. Runs through
    // Machine::setSatp, i.e. the remote-fence accounting path.
    for (unsigned h = 0; h < unsigned(spaces_.size()); ++h) {
        smp_.setCurrentHart(h);
        smp_.hart(h).setSatp(spaces_[h]->rootPa(),
                             kernels_[h]->config().pagingMode);
    }
    smp_.setCurrentHart(0);
    if (is(ChaosLayer::Virt))
        setupVirt();
    // Installed after the layer setup: the boot-time satp/hgatp
    // fences are not part of the campaign.
    smp_.setInterleaveHook(&probe_);

    // Both masters contend for one shared channel, so a master's
    // transfer cycles — including its IOPMP table-reference latency —
    // inflate under the other's load.
    iopmp_.master(0).programSegment(0, windowOf(0), kWindowSize,
                                    Perm::rw());
    iopmp_.master(1).programSegment(0, windowOf(1), kWindowSize,
                                    Perm::rw());
    dma0_.attachBus(&dmaBus_);
    dma1_.attachBus(&dmaBus_);

    // RAS: the background patrol covers exactly the chaos windows, so
    // poison landing under the patrol head (ras.poison_scrub) hits
    // enclave, host or free frames — the classes whose containment is
    // bounded. Monitor-region poison is planted deliberately (and
    // rarely) by the ras.monitor sub-op instead, so a whole-host
    // degrade is always an *expected* event the audits account for.
    if (is(ChaosLayer::Ras)) {
        scrub_ = std::make_unique<Scrubber>(
            smp_.mem(), kWindowBase, kWindows * kWindowSize, 32);
        scrub_->setSkip(
            [this](Addr page) { return monitor_.pageQuarantined(page); });
    }

    injector_.enable(config.seed);

    // Windowed telemetry over the full SMP registry, clocked by the
    // monitor's simulated call_cycles sum (see CampaignConfig).
    if (config.statsSeriesOut) {
        registerStats(seriesRegistry_, true);
        sampler_ = std::make_unique<StatSampler>(seriesRegistry_,
                                                 config.statsSeriesInterval);
    }
}

void
Campaign::setupOs()
{
    kernelDomain_.resize(config_.harts);
    for (unsigned h = 0; h < config_.harts; ++h) {
        kernelDomain_[h] = monitor_.createDomain();
        kernels_.push_back(std::make_unique<Kernel>(
            monitor_, kernelDomain_[h],
            kKernelMemBase + h * kKernelMemStride, kKernelMemBytes,
            KernelConfig{}));
        spaces_.push_back(kernels_.back()->createAddressSpace());
    }
}

/**
 * Two watched accesses per hart: a chaos-window page (permission
 * churns with GMS registration and domain switches) and either the
 * hart's kernel data page (flips on switches to/from its domain) or a
 * second window page in bare mode.
 */
void
Campaign::setupWatches()
{
    unsigned wi = 0;
    for (unsigned h = 0; h < config_.harts; ++h) {
        for (unsigned k = 0; k < 2; ++k) {
            StaleWatch w;
            w.hart = h;
            w.type = (wi % 2) ? AccessType::Store : AccessType::Load;
            if (k == 0) {
                w.pa = windowOf(h % kWindows) + (1 + h) * kPageSize;
            } else if (!kernels_.empty()) {
                w.pa = kKernelMemBase + h * kKernelMemStride +
                       kernels_[h]->config().ptPoolBytes;
            } else {
                w.pa = windowOf((h + 3) % kWindows) + (2 + h) * kPageSize;
            }
            if (!spaces_.empty()) {
                w.va = kWatchVaBase + wi * kPageSize;
                const bool mapped_ok =
                    spaces_[h]->mapFrameAt(w.va, w.pa, Perm::rwx(), false);
                panic_if(!mapped_ok, "watch mapping failed");
            } else {
                w.va = w.pa; // bare harts access physically
            }
            checker_.addWatch(w);
            watchPas_.push_back(w.pa & ~Addr(kPageSize - 1));
            ++wi;
        }
    }
}

void
Campaign::setupVirt()
{
    smp_.enableVirt();
    // One slow NAPOT GMS of the host domain covers every guest arena:
    // the guests only reach memory while the host domain is current,
    // and every domain switch flips their physical stage.
    const MonitorResult ar = monitor_.addGms(
        monitor_.currentDomain(),
        {kVirtArenaBase, kVirtArenaSpan, Perm::rwx(), GmsLabel::Slow});
    panic_if(!ar.ok, "virt arena GMS rejected: %s", ar.error.c_str());

    guests_.resize(config_.harts);
    for (unsigned h = 0; h < config_.harts; ++h) {
        HartGuest &hg = guests_[h];
        const Addr base = kVirtArenaBase + h * kVirtArenaStride;
        hg.nptA = std::make_unique<PageTable>(
            smp_.mem(), bumpAllocator(base + kVirtNptAOff),
            PagingMode::Sv39, 2);
        hg.nptB = std::make_unique<PageTable>(
            smp_.mem(), bumpAllocator(base + kVirtNptBOff),
            PagingMode::Sv39, 2);
        hg.gpt = std::make_unique<PageTable>(
            smp_.mem(), bumpAllocator(base + kVirtGptOff),
            PagingMode::Sv39, 0);
        hg.dataBase = base + kVirtDataOff;

        for (PageTable *npt : {hg.nptA.get(), hg.nptB.get()}) {
            // G-stage identity superpages over the GPT pool: the
            // two-stage walk translates every guest-PT frame.
            for (Addr off = 0; off < kVirtGptPoolBytes; off += 2_MiB) {
                const Addr gpa = base + kVirtGptOff + off;
                panic_if(!npt->map(gpa, gpa, Perm::rw(), true, 1),
                         "G-stage identity map failed");
            }
        }
        for (unsigned p = 0; p < kGuestPages; ++p) {
            const Addr gva = kChaosGuestVaBase + p * kPageSize;
            const Addr gpa = hg.dataBase + p * kPageSize;
            // Page 1 boots as an execute-only, supervisor-only leaf
            // (S-mode fetches from U pages always fault) so the fetch
            // watch below hunts stale X grants from the start.
            hg.gptPerm[p] = p == 1 ? Perm::xo() : Perm::rwx();
            panic_if(!hg.gpt->map(gva, gpa, hg.gptPerm[p], p != 1),
                     "GPT map failed");
            // The B table boots with alternating narrower perms so the
            // very first hgatp switch changes the G-stage view.
            hg.nptPerm[0][p] = Perm::rwx();
            hg.nptPerm[1][p] = p % 2 ? Perm::rwx() : Perm::rw();
            panic_if(!hg.nptA->map(gpa, gpa, hg.nptPerm[0][p], true),
                     "NPT-A map failed");
            panic_if(!hg.nptB->map(gpa, gpa, hg.nptPerm[1][p], true),
                     "NPT-B map failed");
        }

        VirtMachine &vm = smp_.virtHart(h);
        vm.setHgatp(hg.nptA->rootPa());
        vm.setVsatp(hg.gpt->rootPa());

        // Watch page 0 of each guest through the two-stage oracle and
        // commit the boot-time expectations for every page.
        checker_.addVirtWatch(
            {h, kChaosGuestVaBase, hg.dataBase, hg.dataBase,
             h % 2 ? AccessType::Store : AccessType::Load});
        // A second watch fetches through the X-only page: stale
        // executable grants are attributed separately from RW ones (an
        // injectable-code window, not just a data leak).
        checker_.addVirtWatch({h, kChaosGuestVaBase + kPageSize,
                               hg.dataBase + kPageSize,
                               hg.dataBase + kPageSize, AccessType::Fetch});
        for (unsigned p = 0; p < kGuestPages; ++p) {
            checker_.setGuestPerm(h, kChaosGuestVaBase + p * kPageSize,
                                  hg.gptPerm[p]);
            checker_.setGpaPerm(h, hg.dataBase + p * kPageSize,
                                hg.nptPerm[0][p]);
        }
    }
}

/** Every stat group of the campaign; the bus only in the series. */
void
Campaign::registerStats(StatRegistry &registry, bool with_bus)
{
    monitor_.registerStats(registry);
    smp_.registerStats(registry);
    checker_.registerStats(registry);
    iopmp_.registerStats(registry);
    if (with_bus)
        registry.add(&dmaBus_.stats());
    if (scrub_)
        scrub_->registerStats(registry);
    for (unsigned h = 0; h < unsigned(kernels_.size()); ++h) {
        kernels_[h]->registerStats(
            registry, h == 0 ? "os" : "hart" + std::to_string(h) + ".os");
    }
}

// ---- helpers --------------------------------------------------------

/** Record the first failure, stamped with the state key. */
void
Campaign::fail(const Breach &breach)
{
    std::ostringstream where;
    where << "seed " << config_.seed << " harts " << config_.harts
          << " op #" << index_ << " (" << opName_ << "): ";
    failCampaign(stats_, where.str(), breach, index_, stateKey());
}

/** The state a violation is stamped with: monitor and every hart. */
uint64_t
Campaign::stateKey() const
{
    uint64_t key = monitor_.stateDigest();
    for (unsigned h = 0; h < config_.harts; ++h)
        key = fnvFold(key, monitor_.hartStateDigest(h));
    return key;
}

DomainId
Campaign::pickDomain(bool allow_bogus)
{
    if (allow_bogus && chance(0.08, "bogus"))
        return kBogusDomain;
    const auto ids = live();
    return ids[pick(ids.size(), "domain")];
}

Addr
Campaign::pickGmsBase(DomainId id)
{
    if (!monitor_.domainExists(id))
        return windowOf(id);
    const auto &list = monitor_.gmsOf(id);
    if (list.empty() || chance(0.1, "stray")) {
        // A base that (usually) names no GMS.
        return windowOf(id) + pick(16, "page") * kPageSize;
    }
    return list[pick(list.size(), "gms")].base;
}

Gms
Campaign::randomGms(DomainId id)
{
    Gms gms;
    gms.size = randomNapotSize(choices_);
    const Addr window = windowOf(id);
    gms.base = window + pick(kWindowSize / gms.size, "slot") * gms.size;
    gms.perm = randomPerm(choices_);
    gms.label = chance(0.7, "fast") ? GmsLabel::Fast : GmsLabel::Slow;
    // A taste of hostile input: misaligned bases, zero sizes and
    // regions reaching into the monitor-private area. All must be
    // rejected with a typed error and zero state change.
    if (chance(0.05, "misalign"))
        gms.base += 0x100;
    if (chance(0.03, "zero_size"))
        gms.size = 0;
    if (chance(0.04, "in_monitor"))
        gms.base = monitor_.config().monitorBase +
                   pick(monitor_.config().monitorSize / kPageSize, "page") *
                       kPageSize;
    return gms;
}

/**
 * Snapshot every hart's digest for the rollback oracle (when this op
 * is digest-checked). Multi-call ops re-snapshot after each
 * *successful* mutating call, so a later injected failure is judged
 * against the state it actually aborted from, not the op's entry
 * state.
 */
void
Campaign::snapshotDigests()
{
    if (digestChecked_)
        rollbackDigests(monitor_, pre_);
}

/**
 * Poison never lands on a stale-watch page: the watch probes are
 * instrumentation, and a fail-closed machine-check denial there would
 * read as a spurious stale-translation diagnosis.
 */
bool
Campaign::isWatchPage(Addr page) const
{
    return std::find(watchPas_.begin(), watchPas_.end(), page) !=
           watchPas_.end();
}

/**
 * A poisonable page of one of `id`'s exclusive GMSs (0 = none): shared
 * regions are excluded so the blast-radius contract — exactly one
 * owner dies — stays well-defined.
 */
Addr
Campaign::pickPoisonPage(DomainId id)
{
    if (!monitor_.domainExists(id))
        return 0;
    const auto &list = monitor_.gmsOf(id);
    for (unsigned attempt = 0; attempt < 8 && !list.empty(); ++attempt) {
        const Gms &gms = list[pick(list.size(), "gms")];
        if (gms.shared || gms.size < kPageSize)
            continue;
        const Addr page =
            gms.base + pick(gms.size / kPageSize, "page") * kPageSize;
        if (isWatchPage(page) || monitor_.pageQuarantined(page))
            continue;
        return page;
    }
    return 0;
}

/** The live domain whose GMS covers `page` (the last one listed). */
std::optional<DomainId>
Campaign::ownerOf(Addr page) const
{
    std::optional<DomainId> owner;
    for (DomainId id : live()) {
        for (const Gms &gms : monitor_.gmsOf(id)) {
            if (gms.base <= page && page < gms.base + gms.size)
                owner = id;
        }
    }
    return owner;
}

/**
 * Report poison at `pa` and audit the containment against the
 * blast-radius contract (`victim` owns the frame, or may die for it).
 * A typed failure goes back to the caller for the rollback audit.
 */
MonitorValue<RasOutcome>
Campaign::report(PoisonClass cls, Addr pa, DomainId victim, Addr table_root)
{
    ras_.before(cls, pa, victim, table_root);
    ++stats_.rasReports;
    const auto outcome = monitor_.handleMachineCheck(pa);
    if (const Breach b = ras_.after(outcome)) {
        ++stats_.rasBlastViolations;
        fail(b);
    }
    return outcome;
}

// ---- op families ----------------------------------------------------

/**
 * One random operation. 80 % domain lifecycle, 8 % the layer's own
 * family (DMA without a layer), 6 % DMA, and the rest a translation-
 * root rewrite where the layer has one.
 */
MonitorResult
Campaign::runOp()
{
    const unsigned roll = pick(100, "op");
    if (roll < 80)
        return lifecycleOp(roll);
    if (roll < 88) {
        switch (config_.layer) {
          case ChaosLayer::Os: return osOp();
          case ChaosLayer::Virt: return virtOp();
          case ChaosLayer::Fleet: return fleetOp();
          case ChaosLayer::Ras: return rasOp();
          case ChaosLayer::None:
          case ChaosLayer::Migrate: break;
        }
    }
    if (roll < 94)
        return dmaOp();
    return rootRewriteOp();
}

MonitorResult
Campaign::lifecycleOp(unsigned roll)
{
    if (roll < 6) {
        opName_ = "createDomain";
        if (live().size() < kMaxDomains + 1 + kernels_.size())
            monitor_.createDomain();
        return {};
    }
    if (roll < 12) {
        opName_ = "destroyDomain";
        const DomainId id = pickDomain(true);
        // Destroy scrubs and releases the freed GMS pages, so a hart's
        // kernel domain — whose arena backs live page tables the
        // campaign keeps exercising — is never torn down mid-flight.
        if (std::find(kernelDomain_.begin(), kernelDomain_.end(), id) !=
            kernelDomain_.end()) {
            return {};
        }
        return monitor_.destroyDomain(id);
    }
    if (roll < 28) {
        opName_ = "addGms";
        const DomainId id = pickDomain(true);
        if (monitor_.domainExists(id) &&
            monitor_.gmsOf(id).size() >= kMaxGmsPerDomain) {
            return {};
        }
        return monitor_.addGms(id, randomGms(id));
    }
    if (roll < 35) {
        opName_ = "removeGms";
        const DomainId id = pickDomain(true);
        return monitor_.removeGms(id, pickGmsBase(id));
    }
    if (roll < 41) {
        opName_ = "setLabel";
        const DomainId id = pickDomain(true);
        return monitor_.setLabel(id, pickGmsBase(id),
                                 chance(0.5, "fast") ? GmsLabel::Fast
                                                     : GmsLabel::Slow);
    }
    if (roll < 47) {
        opName_ = "setPerm";
        const DomainId id = pickDomain(true);
        return monitor_.setPerm(id, pickGmsBase(id), randomPerm(choices_));
    }
    if (roll < 52) {
        opName_ = "shareGms";
        const DomainId owner = pickDomain(false);
        const DomainId peer = pickDomain(true);
        return monitor_.shareGms(owner, pickGmsBase(owner), peer,
                                 randomPerm(choices_));
    }
    if (roll < 60) {
        opName_ = "hintHotRegion";
        const DomainId id = pickDomain(true);
        Addr base = pickGmsBase(id);
        uint64_t size = randomNapotSize(choices_);
        if (monitor_.domainExists(id) && !monitor_.gmsOf(id).empty() &&
            chance(0.8, "subrange")) {
            // A NAPOT subrange of an existing GMS (usually valid).
            const auto &list = monitor_.gmsOf(id);
            const Gms &gms = list[pick(list.size(), "gms")];
            size = std::max<uint64_t>(gms.size >> pick(3, "shift"), kPageSize);
            if (isPowerOf2(gms.size) && size <= gms.size)
                base = gms.base + pick(gms.size / size, "slot") * size;
        }
        return monitor_.hintHotRegion(id, base, size);
    }
    if (roll < 74) {
        opName_ = "switchTo";
        return monitor_.switchTo(pickDomain(true));
    }
    opName_ = "attest";
    const DomainId id = pickDomain(false);
    const uint64_t nonce = choices_.data(0);
    const auto report = monitor_.attestDomain(id, nonce);
    if (!report.ok)
        return MonitorResult::fail(report.code, report.error);
    if (!monitor_.attestor().verify(report.value, nonce))
        fail({"attest_verify", "attestation report failed verification"});
    return {};
}

MonitorResult
Campaign::osOp()
{
    ++stats_.osOps;
    AddressSpace &as = *spaces_[initiator_];
    auto &regions = mapped_[initiator_];
    switch (pick(4, "os_op")) {
      case 0: {
        opName_ = "os.mmap";
        const uint64_t len = (1 + pick(8, "pages")) * kPageSize;
        const auto va = as.tryMmap(len, Perm::rw(), true, chance(0.7, "eager"));
        if (va)
            regions.push_back({*va, len});
        return {};
      }
      case 1: {
        opName_ = "os.munmap";
        if (!regions.empty()) {
            const size_t idx = pick(regions.size(), "region");
            as.munmap(regions[idx].first, regions[idx].second);
            // munmap fences through the canonical machine; fence the
            // hart that actually ran it too.
            smp_.hart(initiator_).sfenceVma();
            regions.erase(regions.begin() + ptrdiff_t(idx));
        }
        return {};
      }
      default: {
        opName_ = "os.touch";
        MonitorResult result;
        if (monitor_.currentDomain() != kernelDomain_[initiator_])
            result = monitor_.switchTo(kernelDomain_[initiator_]);
        if (!result.ok || regions.empty())
            return result;
        const auto &[base, len] = regions[pick(regions.size(), "region")];
        for (unsigned t = 0; t < 4; ++t) {
            const Addr va = base + pick(len / kPageSize, "page") * kPageSize;
            const AccessType type =
                chance(0.5, "load") ? AccessType::Load : AccessType::Store;
            Machine &m = smp_.hart(initiator_);
            const auto out = m.access(va, type);
            if (out.fault == pageFaultFor(type) && as.handleFault(va, type))
                m.access(va, type);
        }
        return result;
      }
    }
}

/**
 * Rewrite one already-mapped guest leaf in place (PageTable has no
 * protect(): campaigns remap by writing the PTE the walker reads).
 */
void
rewriteLeaf(PhysMem &mem, PageTable &pt, Addr va, Addr pa, Perm perm,
            bool user = true)
{
    const auto slot = pt.leafPteAddr(va);
    panic_if(!slot, "no guest leaf to rewrite");
    mem.write64(*slot, Pte::leaf(pa, perm, user, true, true).raw);
}

MonitorResult
Campaign::virtOp()
{
    ++stats_.virtOps;
    VirtMachine &vm = smp_.virtHart(initiator_);
    HartGuest &hg = guests_[initiator_];
    switch (pick(4, "virt_op")) {
      case 0: {
        opName_ = "virt.touch";
        for (unsigned t = 0; t < 4; ++t) {
            const Addr gva =
                kChaosGuestVaBase + pick(kGuestPages, "page") * kPageSize;
            vm.access(gva, chance(0.5, "load") ? AccessType::Load
                                               : AccessType::Store);
        }
        break;
      }
      case 1: {
        opName_ = "virt.hgatp";
        // Switch nested tables. Commit the new G-stage view to the
        // oracle first, then fence — the same commit-before-shootdown
        // order the monitor uses.
        hg.usingB = !hg.usingB;
        const unsigned next = hg.currentNptIndex();
        for (unsigned p = 0; p < kGuestPages; ++p) {
            checker_.setGpaPerm(initiator_, hg.dataBase + p * kPageSize,
                                hg.nptPerm[next][p]);
        }
        vm.setHgatp(hg.currentNpt().rootPa());
        break;
      }
      case 2: {
        opName_ = "virt.gpt_remap";
        const unsigned p = pick(kGuestPages, "page");
        const Perm np = randomPerm(choices_, true);
        const Addr gva = kChaosGuestVaBase + p * kPageSize;
        // Page 1 keeps U clear so its fetch watch stays live.
        rewriteLeaf(smp_.mem(), *hg.gpt, gva, hg.dataBase + p * kPageSize,
                    np, p != 1);
        hg.gptPerm[p] = np;
        checker_.setGuestPerm(initiator_, gva, np);
        vm.setVsatp(hg.gpt->rootPa()); // hfence.vvma shootdown
        break;
      }
      default: {
        opName_ = "virt.npt_remap";
        const unsigned p = pick(kGuestPages, "page");
        const Perm np = randomPerm(choices_, true);
        const Addr gpa = hg.dataBase + p * kPageSize;
        rewriteLeaf(smp_.mem(), hg.currentNpt(), gpa, gpa, np);
        hg.nptPerm[hg.currentNptIndex()][p] = np;
        checker_.setGpaPerm(initiator_, gpa, np);
        vm.setHgatp(hg.currentNpt().rootPa()); // hfence.gvma
        break;
      }
    }
    return {};
}

MonitorResult
Campaign::fleetOp()
{
    ++stats_.fleetOps;
    switch (pick(4, "fleet_op")) {
      case 0: {
        // Coalesced epoch: a batch of switches from rotating harts
        // defers into one shared shootdown window; the flush runs the
        // single IPI round (with the checker and nested-call probes
        // interleaved into it).
        opName_ = "fleet.epoch";
        ++stats_.fleetEpochs;
        monitor_.beginCoalescedWindow();
        const unsigned batch = 2 + pick(4, "batch");
        for (unsigned b = 0; b < batch; ++b) {
            smp_.setCurrentHart(
                choices_.pick(DecisionKind::Sched, config_.harts, ""));
            const MonitorResult r = monitor_.switchTo(pickDomain(true));
            if (!r.ok && r.code == MonitorError::InjectedFault)
                ++stats_.injectedFaults;
        }
        monitor_.endCoalescedWindow();
        smp_.setCurrentHart(initiator_);
        return {};
      }
      case 1: {
        // A retired id must stay a typed denial — honouring one would
        // hand a stale tenant handle whatever domain recycled the slot.
        opName_ = "fleet.stale";
        if (retired_.empty())
            return {};
        const DomainId old = retired_[pick(retired_.size(), "retired")];
        const MonitorResult r = monitor_.switchTo(old);
        if (r.ok) {
            fail({"stale_handle", "retired domain id " + std::to_string(old) +
                                      " was honoured"});
        } else if (r.code != MonitorError::StaleHandle &&
                   r.code != MonitorError::NoSuchDomain &&
                   r.code != MonitorError::InjectedFault) {
            fail({"stale_handle",
                  std::string("retired id denied with the wrong error: ") +
                      toString(r.code)});
        } else if (r.code != MonitorError::InjectedFault) {
            ++stats_.fleetStaleProbes;
        }
        return r;
      }
      case 2: {
        opName_ = "fleet.churn";
        const DomainId id = pickDomain(false);
        if (id == 0)
            return {}; // never churn the host domain
        const MonitorResult r = monitor_.destroyDomain(id);
        if (r.ok) {
            retired_.push_back(id);
            ++stats_.fleetChurns;
        }
        return r;
      }
      default:
        // Same-domain re-switch: the empty layout diff must elide the
        // shootdown (monitor.ipi_elided), not fence every sibling for
        // nothing.
        opName_ = "fleet.reswitch";
        return monitor_.switchTo(monitor_.currentDomain());
    }
}

MonitorResult
Campaign::rasOp()
{
    static constexpr const char *kNames[] = {
        "ras.data", "ras.pmpte", "ras.free",
        "ras.scrub", "ras.monitor", "ras.suspended",
    };
    ++stats_.rasOps;
    const unsigned sub = pick(6, "ras_op");
    opName_ = kNames[sub];
    // A degraded host takes no new poison; the patrol keeps reporting.
    if (monitor_.rasFatal())
        return {};
    switch (sub) {
      case 0: return rasData();
      case 1: return rasPmpte();
      case 2: return rasFree();
      case 3: return rasScrub();
      case 4: return rasMonitor();
      default: return rasSuspended();
    }
}

/**
 * Poison a victim enclave's data page, consume it through a real load
 * when the region is readable, and report: exactly the owning domain
 * must die.
 */
MonitorResult
Campaign::rasData()
{
    const DomainId victim = pickDomain(false);
    if (victim == 0)
        return {};
    const Addr page = pickPoisonPage(victim);
    if (!page)
        return {};
    const Addr line = page + pick(64, "line") * 64;
    smp_.mem().poisonLine(line);
    ++stats_.rasPoisons;
    Perm perm;
    for (const Gms &gms : monitor_.gmsOf(victim)) {
        if (gms.base <= page && page < gms.base + gms.size)
            perm = gms.perm;
    }
    if (perm.allows(AccessType::Load) && chance(0.6, "consume")) {
        // Read it back the way a core would: switch to the owner and
        // load — the fill must fail closed with a typed machine check,
        // never a panic.
        const MonitorResult sw = monitor_.switchTo(victim);
        if (!sw.ok)
            return sw;
        snapshotDigests();
        const auto out = smp_.hart(initiator_).access(line, AccessType::Load);
        if (out.fault == Fault::MachineCheck)
            ++stats_.rasMachineChecks;
        if (const Breach b = ContainmentAudit::consumption(out, line)) {
            fail(b);
            return {};
        }
    }
    return asResult(report(PoisonClass::Data, line, victim));
}

/**
 * Poison a pmpte frame: the monitor must rebuild the table from its
 * authoritative layout — same measurement, same grants, fresh frames,
 * new root.
 */
MonitorResult
Campaign::rasPmpte()
{
    const DomainId victim = pickDomain(false);
    const PmpTable *table = monitor_.tablePeek(victim);
    if (!table || table->tablePages().empty())
        return {};
    const auto &frames = table->tablePages();
    const Addr frame = frames[pick(frames.size(), "frame")];
    const Addr root = table->rootPa();
    smp_.mem().poisonLine(frame + pick(64, "line") * 64);
    ++stats_.rasPoisons;
    // A typed heal failure (injected fault) must have restored the
    // poisoned table bit-identically — the rollback audits verify
    // exactly that. Table-frame exhaustion mid-rebuild legitimately
    // degrades the host (HostFatal) late in a long campaign.
    const auto outcome = report(PoisonClass::Pmpte, frame, victim, root);
    if (!outcome.ok || stats_.failed ||
        outcome.value != RasOutcome::HealedTable ||
        monitor_.domainMigrating(victim)) {
        return asResult(outcome);
    }
    // Re-attest: the rebuilt table must produce the same verifiable
    // report a fresh enrolment would.
    const uint64_t nonce = choices_.data(0);
    const auto attest = monitor_.attestDomain(victim, nonce);
    if (const Breach b = ras_.healAttestation(nullptr, attest, nonce))
        fail(b);
    return {};
}

/** Poison a frame nobody owns: the quarantine must touch no domain. */
MonitorResult
Campaign::rasFree()
{
    const Addr page = windowOf(pick(kWindows, "window")) +
                      pick(kWindowSize / kPageSize, "page") * kPageSize;
    if (ownerOf(page) || isWatchPage(page) || monitor_.pageQuarantined(page))
        return {};
    smp_.mem().poisonLine(page + pick(64, "line") * 64);
    ++stats_.rasPoisons;
    return asResult(report(PoisonClass::Free, page, 0));
}

/**
 * Poison lands under the patrol head mid-scan (ras.poison_scrub); the
 * patrol itself must detect and report it within a few batches.
 */
MonitorResult
Campaign::rasScrub()
{
    if (choices_.chance(DecisionKind::Fault, 0.5, "ras.poison_scrub"))
        injector_.armNth("ras.poison_scrub",
                         1 + choices_.pick(DecisionKind::Fault, 64, "nth"));
    for (unsigned b = 0; b < 4; ++b) {
        const auto hit = scrub_->step();
        if (!hit)
            continue;
        const auto outcome =
            report(PoisonClass::Scrubbed, *hit, ownerOf(*hit).value_or(0));
        if (!outcome.ok || stats_.failed)
            return asResult(outcome);
        snapshotDigests();
    }
    return {};
}

/**
 * Rare, late: poison the monitor's private state. The only sound
 * containment is a whole-host degrade — every later mutating call
 * must be a typed RasFatal denial while reads and audits stay up.
 */
MonitorResult
Campaign::rasMonitor()
{
    if (index_ < config_.ops * 3 / 4 || !chance(0.1, "monitor_poison"))
        return {};
    const MonitorConfig &mcfg = monitor_.config();
    Addr page = 0;
    for (unsigned attempt = 0; attempt < 8 && !page; ++attempt) {
        const Addr cand = mcfg.monitorBase +
                          pick(mcfg.monitorSize / kPageSize, "page") * kPageSize;
        bool table_frame = false;
        for (DomainId id : live()) {
            const PmpTable *t = monitor_.tablePeek(id);
            if (t && t->isTablePage(cand))
                table_frame = true;
        }
        if (!table_frame && !monitor_.pageQuarantined(cand))
            page = cand;
    }
    if (!page)
        return {};
    smp_.mem().poisonPage(page);
    ++stats_.rasPoisons;
    const auto outcome = report(PoisonClass::Monitor, page, 0);
    if (!outcome.ok || stats_.failed)
        return asResult(outcome);
    // Degrade, not crash: the registry is intact and every mutating
    // call is now a typed denial.
    const MonitorResult denied = monitor_.switchTo(pickDomain(false));
    if (const Breach b = ContainmentAudit::degradedCall(denied))
        fail(b);
    return {};
}

/**
 * Poison inside a suspended (mid-migration) domain: containment must
 * still work — the migration is dead either way, and only the owner
 * may go.
 */
MonitorResult
Campaign::rasSuspended()
{
    const DomainId victim = pickDomain(false);
    if (victim == 0)
        return {};
    const Addr page = pickPoisonPage(victim);
    if (!page)
        return {};
    const MonitorResult sus = monitor_.suspendDomain(victim);
    if (!sus.ok)
        return sus;
    snapshotDigests();
    smp_.mem().poisonLine(page);
    ++stats_.rasPoisons;
    // On a typed failure the domain stays suspended: the patrol
    // scrubber will re-find the poison and finish containment.
    return asResult(report(PoisonClass::Data, page, victim));
}

MonitorResult
Campaign::dmaOp()
{
    opName_ = "dma";
    ++stats_.dmaOps;
    const unsigned master = pick(2, "master");
    const Addr window = windowOf(master);
    const Addr src = window + pick(64, "page") * kPageSize;
    const Addr dst = window + kWindowSize / 2 + pick(64, "page") * kPageSize;
    DmaEngine &dma = master == 0 ? dma0_ : dma1_;
    const auto xfer = dma.transfer(src, dst, 256 + pick(4, "len") * 256);
    if (xfer.busWaitCycles != 0) {
        ++stats_.dmaBusWaits;
        stats_.dmaBusWaitCycles += xfer.busWaitCycles;
    }
    MonitorResult result;
    if (xfer.machineCheck && is(ChaosLayer::Ras)) {
        // A beat consumed poison: the engine failed closed; route the
        // machine check to the monitor like the platform firmware
        // would.
        ++stats_.rasMachineChecks;
        ++stats_.rasReports;
        const auto outcome = monitor_.handleMachineCheck(xfer.faultAddr);
        if (!outcome.ok)
            result = MonitorResult::fail(outcome.code, outcome.error);
    }
    if (chance(0.25, "flush"))
        iopmp_.flushCaches();
    return result;
}

/**
 * A translation-root rewrite: the remote-fence path that is not a
 * monitor call — satp under the OS layer, vsatp with an unchanged root
 * (the hfence shootdown) under the virt layer, one more domain switch
 * otherwise.
 */
MonitorResult
Campaign::rootRewriteOp()
{
    if (is(ChaosLayer::Os)) {
        opName_ = "os.satp";
        ++stats_.osOps;
        smp_.hart(initiator_).setSatp(
            spaces_[initiator_]->rootPa(),
            kernels_[initiator_]->config().pagingMode);
        return {};
    }
    if (is(ChaosLayer::Virt)) {
        opName_ = "virt.vsatp";
        ++stats_.virtOps;
        smp_.virtHart(initiator_).setVsatp(guests_[initiator_].gpt->rootPa());
        return {};
    }
    opName_ = "switchTo";
    return monitor_.switchTo(pickDomain(true));
}

// ---- audits ---------------------------------------------------------

/**
 * The shared per-op battery (verify::auditOp) plus this engine's
 * outcome counters. Every op's rollback is judged when its digests
 * were snapshotted; convergence every 4th op. False once the campaign
 * has failed.
 */
bool
Campaign::audit(const MonitorResult &result)
{
    ++stats_.ops;
    if (result.ok) {
        ++stats_.okOps;
        if (result.degraded)
            ++stats_.degradedOps;
    } else {
        ++stats_.failedOps;
        if (result.code == MonitorError::InjectedFault)
            ++stats_.injectedFaults;
        if (digestChecked_)
            ++stats_.rollbackChecks;
    }
    const bool convergence = index_ % 4 == 0;
    if (convergence)
        ++stats_.convergenceChecks;
    ++stats_.invariantChecks;
    if (const Breach b = auditOp(
            monitor_, checker_, probe_,
            {.result = &result,
             .pre = digestChecked_ ? &pre_ : nullptr,
             .convergence = convergence,
             .where = opName_})) {
        fail(b);
        return false;
    }
    return true;
}

/**
 * RAS campaigns: one patrol batch between every op — latent poison the
 * consumers have not tripped over (failed reports, suspended victims)
 * is found and contained within a lap. Runs after the audits: its
 * containments belong to the *next* op's oracle snapshot.
 */
void
Campaign::patrol()
{
    opName_ = "ras.patrol";
    const auto hit = scrub_->step();
    if (!hit)
        return;
    const auto outcome =
        report(PoisonClass::Scrubbed, *hit, ownerOf(*hit).value_or(0));
    if (!outcome.ok && outcome.code != MonitorError::RasFatal)
        fail({"patrol_report", "patrol report failed: " + outcome.error});
    // A nested call that leaked during the patrol fails here.
    if (probe_.breach())
        fail(probe_.breach());
}

ChaosStats
Campaign::run()
{
    for (; index_ < config_.ops && !stats_.failed; ++index_) {
        if (sampler_)
            sampler_->advanceTo(callCycles(monitor_));
        // Every op initiates from a random hart: the monitor must
        // program the canonical unit and converge everyone else no
        // matter who trapped in.
        initiator_ = choices_.pick(DecisionKind::Sched, config_.harts, "");
        smp_.setCurrentHart(initiator_);

        // Arm a fault for this op with the configured probability: the
        // Nth upcoming site hit, whatever site that turns out to be.
        const bool armed =
            choices_.chance(DecisionKind::Fault, config_.faultProb, "arm");
        digestChecked_ = armed || index_ % 8 == 0;
        snapshotDigests();
        if (armed)
            injector_.armAnyNth(1 + choices_.pick(DecisionKind::Fault, 8, "nth"));

        const MonitorResult result = runOp();
        injector_.clearPlans(); // disarm anything that did not fire
        if (stats_.failed || !audit(result))
            break;
        if (is(ChaosLayer::Ras))
            patrol();
    }

    injector_.disable();
    smp_.setInterleaveHook(nullptr);
    collectStats();
    return stats_;
}

void
Campaign::collectStats()
{
    StatGroup &ms = monitor_.stats();
    stats_.ipiShootdowns = ms.get("ipi_shootdowns");
    stats_.ipiLost = ms.get("ipi_lost");
    stats_.lockContended = probe_.bounced();
    stats_.staleProbes = checker_.probesRun();
    stats_.preAckStaleHits = checker_.preAckStaleHits();
    stats_.postAckViolations = checker_.postAckViolations();
    if (is(ChaosLayer::Fleet))
        stats_.coalescedWindows = ms.get("coalesced_windows");
    if (is(ChaosLayer::Virt)) {
        // Monitor-call fences and direct vsatp/hgatp fences both count.
        stats_.hfenceShootdowns = ms.get("hfence_shootdowns") +
                                  smp_.stats().get("hfence_shootdowns");
        stats_.virtStaleProbes = checker_.virtProbesRun();
        stats_.virtPreAckStaleHits = checker_.virtPreAckStaleHits();
        stats_.staleExecGrants = checker_.staleExecGrants();
        stats_.staleRwGrants = checker_.staleRwGrants();
    }
    if (is(ChaosLayer::Ras)) {
        stats_.rasQuarantines = ms.get("ras.quarantines");
        stats_.rasContained = ms.get("ras.contained_domains");
        stats_.rasHeals = ms.get("ras.heals");
        stats_.rasFatalEvents = ms.get("ras.fatal");
        stats_.scrubPagesScanned = scrub_->pagesScanned();
        stats_.scrubDetections = scrub_->detections();
        // A whole-host degrade is only legal when the campaign planted
        // monitor-region poison (or a rebuild ran out of frames) —
        // anything else means containment escalated past its class.
        if (const Breach b = ras_.finish(); b && !stats_.failed) {
            ++stats_.rasBlastViolations;
            fail(b);
        }
    }

    if (sampler_) {
        sampler_->sample(callCycles(monitor_));
        *config_.statsSeriesOut = sampler_->dumpJson();
    }
    if (config_.statsJsonOut) {
        StatRegistry registry;
        registerStats(registry, false);
        *config_.statsJsonOut = registry.dumpJson();
    }
}

// ---- the two-host migration campaign --------------------------------
// Tenant slot i lives in chaos window i on both hosts, so identity
// placement always lands in a free window on the other side.
constexpr unsigned kSlots = 4;
constexpr uint64_t kPatternBytes = 128;

/** One migratable tenant: its current host, id and memory pattern. */
struct Slot
{
    DomainId id = 0;
    bool onDest = false; //!< currently lives on host B
    MemoryImage image;   //!< first region's pattern, checked on commit
};

/**
 * The two-host migration campaign (ChaosLayer::Migrate): a seeded
 * stream of domain ping-pong migrations between two hosts with faults
 * armed at random sites, the migrate.* protocol sites included. Every
 * migration is judged by judgeMigration (verify/contracts.h).
 */
ChaosStats
runTwoHostCampaign(const CampaignConfig &config, Choices &choices)
{
    ChaosStats stats;
    stats.harts = config.harts;

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
    if (config.mutateSkipFenceNth != 0)
        monA.testSkipFenceNth(config.mutateSkipFenceNth);

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
    // The first failure, stamped with both hosts' state.
    auto fail = [&](unsigned index, const Breach &b) {
        failCampaign(stats,
                     "seed " + std::to_string(config.seed) + " op #" +
                         std::to_string(index) + " (" + op_name + "): ",
                     b, index, fnvFold(monA.stateDigest(), monB.stateDigest()));
    };

    // Windowed telemetry across both hosts, clocked by the sum of
    // both monitors' simulated call cycles (work on either host
    // advances the campaign clock).
    StatRegistry seriesRegistry;
    std::unique_ptr<StatSampler> sampler;
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
            sampler->advanceTo(callCycles(monA) + callCycles(monB));
        ++stats.ops;
        if (choices.chance(DecisionKind::Fault, config.faultProb, "arm")) {
            ++stats.injectedFaults;
            injector.armAnyNth(1 + choices.pick(DecisionKind::Fault, 24, "nth"));
        }

        const unsigned si = choices.pick(DecisionKind::Op, kSlots, "slot");
        Slot &slot = slots[si];
        SecureMonitor &here = slot.onDest ? monB : monA;
        SecureMonitor &there = slot.onDest ? monA : monB;

        if (choices.pick(DecisionKind::Op, 100, "op") < 25) {
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
        const uint64_t nonce = choices.data(1ull << 62) + 1;
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
                fail(i, {"stale_handle", "retired source id was not denied "
                                         "after migration commit"});
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
            fail(i, b);
        }
        // Operator recovery of a stranded domain: resume the staged copy.
        if (res.stranded && there.domainMigrating(res.destId) &&
            !there.resumeDomain(res.destId).ok) {
            fail(i, {"stranded_resume",
                     "stranded-domain recovery resume failed"});
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
        sampler->sample(callCycles(monA) + callCycles(monB));
        *config.statsSeriesOut = sampler->dumpJson();
    }
    if (config.statsJsonOut) {
        StatRegistry registry;
        register_stats(registry);
        *config.statsJsonOut = registry.dumpJson();
    }
    return stats;
}


} // namespace

ChaosStats
runChaos(const CampaignConfig &config, Choices &choices)
{
    if (config.layer == ChaosLayer::Migrate)
        return runTwoHostCampaign(config, choices);
    return Campaign(config, choices).run();
}

ChaosStats
runChaos(const CampaignConfig &config)
{
    SeededChoices choices(config.seed);
    ChaosStats stats = runChaos(config, choices);
    if (stats.failed) {
        CampaignConfig header = config;
        header.script = "chaos";
        stats.counterexample.decisions = std::move(choices.made);
        stats.counterexample.configLines = header.configLines();
    }
    return stats;
}

} // namespace hpmp::verify
