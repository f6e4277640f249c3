/**
 * @file
 * `tenants`: a closed loop of tenant requests over a 4-hart SMP system
 * under PMP / PMPT / HPMP (Rocket), on one host thread.
 *
 * Each tenant owns a seeded number of NAPOT GMSs (at most 14, so plain
 * PMP can hold one tenant) and its own Sv39 page table inside its
 * first GMS. A request picks a tenant from a Zipf(0.99) popularity,
 * switches to it on the next hart, points that hart's satp at the
 * tenant's table and runs a seeded-size burst of loads and stores in
 * the tenant's memory. Switches are batched into coalesced shootdown
 * windows; 2 % of requests churn their tenant (destroy + re-create),
 * 5 % attest it, and 2 % probe a page of the neighbouring tenant,
 * which must be denied. This is the monitor and SMP work (registry,
 * layout diffs, IPI shootdowns) that no other workload exercises.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "base/rng.h"
#include "base/stats.h"
#include "core/smp.h"
#include "monitor/secure_monitor.h"
#include "pt/page_table.h"
#include "sim/report.h"

namespace perfbench
{

using namespace hpmp;

namespace
{

constexpr unsigned kHarts = 4;
constexpr unsigned kTenants = 64;
constexpr unsigned kMaxGms = 14;
constexpr Addr kArenaBase = 4_GiB;
constexpr uint64_t kSlotBytes = 16_MiB;
constexpr uint64_t kGmsStride = 256_KiB;
constexpr uint64_t kFirstGmsBytes = 64_KiB;
constexpr uint64_t kPtAreaBytes = 32_KiB; //!< head of GMS 0: PT frames
constexpr Addr kVaBase = 0x40000000;
constexpr Addr kForeignVa = kVaBase + kSlotBytes; //!< maps a neighbour page
constexpr unsigned kRequestsPerRound = 4000;
/** Simulated results cover the first rounds: 16000 requests per scheme. */
constexpr unsigned kRecordedRounds = 4;
constexpr unsigned kWindow = 8; //!< switches per coalesced window
constexpr unsigned kMinBurst = 16;
constexpr unsigned kMaxBurst = 256;
constexpr double kZipfS = 0.99;
constexpr double kChurnProb = 0.02;
constexpr double kAttestProb = 0.05;
constexpr double kCrossProbeProb = 0.02;
constexpr unsigned kMaxRounds = 1000;
/**
 * The tenant population is fixed; the workload seed drives the request
 * stream. Seeding the population too would make which tenants are hot
 * (and so every end-to-end figure) swing by 2x between seeds.
 */
constexpr uint64_t kPopulationSeed = 0x7e4a47;
/** Set-up takes milliseconds; repeat it so setup_s is a steady median. */
constexpr unsigned kSetupRepeats = 3;

Addr
slotBase(unsigned slot)
{
    return kArenaBase + Addr(slot) * kSlotBytes;
}

/** A tenant slot's memory layout; fixed for the slot across churn. */
struct SlotLayout
{
    std::vector<Gms> gms;
    std::vector<Addr> dataVas; //!< every mapped data page
};

std::vector<SlotLayout>
makeLayouts(uint64_t seed)
{
    Rng rng(seed);
    std::vector<SlotLayout> layouts(kTenants);
    for (unsigned slot = 0; slot < kTenants; ++slot) {
        SlotLayout &l = layouts[slot];
        const unsigned n = 1 + unsigned(rng.below(kMaxGms));
        for (unsigned g = 0; g < n; ++g) {
            const uint64_t size =
                g == 0 ? kFirstGmsBytes : 4_KiB << rng.below(4);
            const Addr base = slotBase(slot) + g * kGmsStride;
            l.gms.push_back({base, size, Perm::rwx(), GmsLabel::Fast});
            const Addr first = g == 0 ? base + kPtAreaBytes : base;
            for (Addr pa = first; pa < base + size; pa += kPageSize)
                l.dataVas.push_back(kVaBase + (pa - slotBase(slot)));
        }
    }
    return layouts;
}

/** Host time and count of one kind of call. */
struct CallTimer
{
    CallTimer(Report &r, const char *call)
        : report(r), name(call), t0(std::chrono::steady_clock::now())
    {}
    ~CallTimer()
    {
        report.addHost(std::string("monitor_us.") + name, 1e6 * since(t0));
        report.addHost(std::string("monitor_calls.") + name, 1.0);
    }
    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

    Report &report;
    const char *name;
    std::chrono::steady_clock::time_point t0;
};

struct Tenant
{
    DomainId id = 0;
    std::unique_ptr<PageTable> pt;
};

/** One scheme's SMP system, monitor, tenants and request stream. */
class Rig
{
  public:
    Rig(RunContext &ctx, IsolationScheme scheme,
        const std::vector<SlotLayout> &layouts)
        : ctx_(ctx), layouts_(layouts), rng_(ctx.seed)
    {
        SetupTimer timer(ctx.report);
        {
            Span span(ctx.spans, "core.SmpSystem");
            SmpParams sp;
            sp.harts = kHarts;
            sp.schedSeed = ctx.seed;
            smp_ = std::make_unique<SmpSystem>(rocketParams(), sp);
            MonitorConfig mc;
            mc.scheme = scheme;
            monitor_ = std::make_unique<SecureMonitor>(*smp_, mc);
        }
        timer.envBuilt();
        tenants_.resize(kTenants);
        for (unsigned slot = 0; slot < kTenants; ++slot)
            provision(slot);
        timer.done();

        double sum = 0.0;
        for (unsigned i = 0; i < kTenants; ++i) {
            sum += 1.0 / std::pow(double(i + 1), kZipfS);
            zipfCdf_.push_back(sum);
        }
        for (double &c : zipfCdf_)
            c /= sum;

        smp_->registerStats(registry_);
        monitor_->registerStats(registry_);
        registry_.resetAll();
        for (unsigned h = 0; h < kHarts; ++h)
            smp_->hart(h).hier().resetStats();
    }

    /**
     * One round of requests. Rounds below kRecordedRounds accumulate
     * simulated results; the last of them reports them.
     */
    uint64_t round(const char *scheme, unsigned index);

  private:
    void provision(unsigned slot);
    void churn(unsigned slot);

    unsigned
    sampleSlot()
    {
        const auto it = std::upper_bound(zipfCdf_.begin(), zipfCdf_.end(),
                                         rng_.real());
        return unsigned(std::min<size_t>(it - zipfCdf_.begin(),
                                         kTenants - 1));
    }

    RunContext &ctx_;
    const std::vector<SlotLayout> &layouts_;
    Rng rng_;
    std::unique_ptr<SmpSystem> smp_;
    std::unique_ptr<SecureMonitor> monitor_;
    std::vector<Tenant> tenants_;
    std::vector<double> zipfCdf_;
    StatRegistry registry_;
    uint64_t nextHart_ = 0;
    uint64_t nextTrace_ = 1;

    // Outcomes of the recorded rounds.
    std::vector<uint64_t> reqCycles_, switchCycles_;
    uint64_t recordedCycles_ = 0, recordedAccesses_ = 0;
    uint64_t callFails_ = 0, attestFails_ = 0, burstFaults_ = 0;
    uint64_t churns_ = 0, retiredDenied_ = 0;
    uint64_t crossProbes_ = 0, crossDenied_ = 0;
};

void
Rig::provision(unsigned slot)
{
    Report &rep = ctx_.report;
    Tenant &t = tenants_[slot];
    {
        CallTimer timer(rep, "createDomain");
        Span span(ctx_.spans, "monitor.createDomain");
        t.id = monitor_->createDomain();
    }
    for (const Gms &gms : layouts_[slot].gms) {
        CallTimer timer(rep, "addGms");
        Span span(ctx_.spans, "monitor.addGms");
        const MonitorResult r = monitor_->addGms(t.id, gms);
        if (!r.ok)
            ++callFails_;
    }
    Span span(ctx_.spans, "pt.PageTable.map");
    t.pt = std::make_unique<PageTable>(
        smp_->mem(), bumpAllocator(slotBase(slot)), PagingMode::Sv39);
    for (const Addr va : layouts_[slot].dataVas)
        t.pt->map(va, slotBase(slot) + (va - kVaBase), Perm::rw(), true);
    const unsigned next = (slot + 1) % kTenants;
    t.pt->map(kForeignVa, slotBase(next) + kPtAreaBytes, Perm::rw(), true);
}

void
Rig::churn(unsigned slot)
{
    const DomainId old = tenants_[slot].id;
    {
        CallTimer timer(ctx_.report, "destroyDomain");
        Span span(ctx_.spans, "monitor.destroyDomain");
        if (!monitor_->destroyDomain(old).ok)
            ++callFails_;
    }
    provision(slot);
    // The retired id must be a typed denial, never an alias of the
    // tenant that now owns the recycled registry slot.
    MonitorResult probe;
    {
        Span span(ctx_.spans, "monitor.switchTo");
        probe = monitor_->switchTo(old);
    }
    ++churns_;
    if (!probe.ok && (probe.code == MonitorError::StaleHandle ||
                      probe.code == MonitorError::NoSuchDomain))
        ++retiredDenied_;
}

uint64_t
Rig::round(const char *scheme, unsigned index)
{
    Report &rep = ctx_.report;
    const bool recording = index < kRecordedRounds;
    std::vector<unsigned> pendingChurn;
    std::vector<AccessRequest> burst;
    uint64_t accesses = 0;
    double batchSeconds = 0.0;

    for (unsigned done = 0; done < kRequestsPerRound; done += kWindow) {
        monitor_->beginCoalescedWindow();
        for (unsigned i = 0; i < kWindow; ++i) {
            ctx_.spans.setTrace(nextTrace_++);
            Span request(ctx_.spans, "bench.request");
            const unsigned hart = unsigned(nextHart_++ % kHarts);
            const unsigned slot = sampleSlot();
            Tenant &t = tenants_[slot];
            smp_->setCurrentHart(hart);
            MonitorResult sw;
            {
                CallTimer timer(rep, "switchTo");
                Span span(ctx_.spans, "monitor.switchTo");
                sw = monitor_->switchTo(t.id);
            }
            if (!sw.ok)
                ++callFails_;
            Machine &m = smp_->hart(hart);
            {
                Span span(ctx_.spans, "smp.setSatp");
                m.setSatp(t.pt->rootPa(), PagingMode::Sv39);
            }
            m.setPriv(PrivMode::User);

            const std::vector<Addr> &pages = layouts_[slot].dataVas;
            const unsigned n =
                kMinBurst + unsigned(rng_.below(kMaxBurst - kMinBurst + 1));
            burst.clear();
            for (unsigned k = 0; k < n; ++k) {
                const Addr va = pages[rng_.below(pages.size())] +
                                8 * rng_.below(kPageSize / 8);
                burst.push_back({va, rng_.chance(0.3) ? AccessType::Store
                                                      : AccessType::Load});
            }
            const auto t0 = std::chrono::steady_clock::now();
            BatchOutcome b;
            {
                Span span(ctx_.spans, "core.Machine.accessBatch");
                b = m.accessBatch(burst);
            }
            batchSeconds += since(t0);
            accesses += b.accesses;
            burstFaults_ += b.faults;
            uint64_t cycles = sw.cycles + b.cycles;

            if (rng_.chance(kAttestProb)) {
                CallTimer timer(rep, "attestDomain");
                Span span(ctx_.spans, "monitor.attestDomain");
                if (!monitor_->attestDomain(t.id, rng_.next()).ok)
                    ++attestFails_;
            }
            if (rng_.chance(kCrossProbeProb)) {
                Span span(ctx_.spans, "core.Machine.access");
                const AccessOutcome out =
                    m.access(kForeignVa, AccessType::Load);
                ++crossProbes_;
                if (out.fault == Fault::LoadAccessFault)
                    ++crossDenied_;
            }
            if (rng_.chance(kChurnProb))
                pendingChurn.push_back(slot);
            if (i + 1 == kWindow) {
                CallTimer timer(rep, "endCoalescedWindow");
                Span span(ctx_.spans, "smp.endCoalescedWindow");
                cycles += monitor_->endCoalescedWindow();
            }
            if (recording) {
                reqCycles_.push_back(cycles);
                switchCycles_.push_back(sw.cycles);
                recordedCycles_ += cycles;
                recordedAccesses_ += b.accesses;
            }
        }
        ctx_.spans.setTrace(0);
        // Churn commits its own layouts; run it after the window flush
        // so each window's deferred shootdown covers only its switches.
        for (const unsigned slot : pendingChurn)
            churn(slot);
        pendingChurn.clear();
    }
    rep.addHost("accessbatch_s", batchSeconds);
    rep.addHost("accessbatch_accesses", double(accesses));

    if (index + 1 == kRecordedRounds) {
        rep.cells.push_back({"requests", scheme, double(recordedCycles_),
                             recordedAccesses_});
        rep.simSeries[std::string("req_cycles.") + scheme] = reqCycles_;
        rep.simSeries[std::string("switch_cycles.") + scheme] =
            switchCycles_;
        rep.statsJson[scheme] = registry_.dumpJson();
        for (unsigned h = 0; h < kHarts; ++h)
            rep.addMemCounters(scheme, smp_->hart(h));
        const std::string s = scheme;
        rep.check("monitor_calls_ok." + s,
                  callFails_ == 0 && attestFails_ == 0,
                  std::to_string(callFails_) + " failed monitor calls, " +
                      std::to_string(attestFails_) + " failed attests");
        rep.check("no_unexpected_fault." + s, burstFaults_ == 0,
                  std::to_string(burstFaults_) + " burst faults");
        rep.check("retired_id_denied." + s,
                  churns_ > 0 && retiredDenied_ == churns_,
                  std::to_string(retiredDenied_) + " of " +
                      std::to_string(churns_) + " denied");
        rep.check("cross_tenant_denied." + s,
                  crossProbes_ > 0 && crossDenied_ == crossProbes_,
                  std::to_string(crossDenied_) + " of " +
                      std::to_string(crossProbes_) + " denied");
    }
    return accesses;
}

} // namespace

void
runTenants(RunContext &ctx)
{
    Report &rep = ctx.report;
    for (const SchemeDef &s : kSchemes)
        rep.schemes.push_back(s.name);
    probeSv39(rep);

    const std::vector<SlotLayout> layouts = makeLayouts(kPopulationSeed);
    std::vector<std::unique_ptr<Rig>> rigs;
    {
        Span setup(ctx.spans, "bench.setup");
        for (unsigned repeat = 0; repeat < kSetupRepeats; ++repeat) {
            rigs.clear();
            for (const SchemeDef &s : kSchemes)
                rigs.push_back(std::make_unique<Rig>(ctx, s.scheme, layouts));
        }
    }
    // Set-up calls are not part of the per-call host costs.
    for (auto it = rep.hostScalars.begin(); it != rep.hostScalars.end();)
        it = it->first.rfind("monitor_", 0) == 0 ? rep.hostScalars.erase(it)
                                                 : std::next(it);

    runRounds(ctx, kRecordedRounds, kMaxRounds, [&](unsigned round) {
        uint64_t accesses = 0;
        for (size_t i = 0; i < rigs.size(); ++i)
            accesses += rigs[i]->round(kSchemes[i].name, round);
        return accesses;
    });
}

} // namespace perfbench
