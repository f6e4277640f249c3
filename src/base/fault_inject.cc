#include "base/fault_inject.h"

#include <algorithm>

namespace hpmp
{

void
FaultInjector::enable(uint64_t seed)
{
    disable();
    enabled_ = true;
    rng_.reseed(seed);
}

void
FaultInjector::disable()
{
    enabled_ = false;
    controller_ = nullptr;
    plans_.clear();
    anyNth_ = 0;
    totalHits_ = 0;
    fired_.clear();
}

void
FaultInjector::clearPlans()
{
    plans_.clear();
    anyNth_ = 0;
}

void
FaultInjector::armNth(const std::string &site, uint64_t nth)
{
    Plan &p = plan(site);
    p.nth = p.hitCount + nth;
}

void
FaultInjector::armProb(const std::string &site, double prob)
{
    plan(site).prob = prob;
}

void
FaultInjector::armSchedule(const std::string &site,
                           std::vector<uint64_t> hits)
{
    std::sort(hits.begin(), hits.end());
    plan(site).sched = std::move(hits);
}

void
FaultInjector::armAnyNth(uint64_t nth)
{
    anyNth_ = totalHits_ + nth;
}

bool
FaultInjector::shouldFire(const char *site)
{
    return fireCheck(site, /*allow_any=*/true);
}

bool
FaultInjector::shouldFireNamed(const char *site)
{
    return fireCheck(site, /*allow_any=*/false);
}

bool
FaultInjector::fireCheck(const char *site, bool allow_any)
{
    ++totalHits_;
    everSeen_.insert(site);
    Plan &p = plan(site);
    ++p.hitCount;

    // Decision-controller mode: the enumerator decides, plans are
    // bypassed entirely (hit accounting above still ran, so coverage
    // reporting and the fired log stay truthful).
    if (controller_) {
        const bool forced = controller_(site);
        if (forced)
            fired_.push_back(site);
        return forced;
    }

    // ">=", not "==": hits at sites excluded from the any-site plan
    // (corruption sites, allow_any = false) advance the hit count, and
    // the plan then fires at the first *eligible* site after the mark
    // instead of being silently consumed.
    bool fire = false;
    if (allow_any && anyNth_ != 0 && totalHits_ >= anyNth_) {
        fire = true;
        anyNth_ = 0; // one-shot
    }
    if (p.nth != 0 && p.hitCount == p.nth) {
        fire = true;
        p.nth = 0; // one-shot
    }
    if (!p.sched.empty() &&
        std::binary_search(p.sched.begin(), p.sched.end(), p.hitCount)) {
        fire = true;
    }
    if (!fire && p.prob > 0.0)
        fire = rng_.chance(p.prob);

    if (fire)
        fired_.push_back(site);
    return fire;
}

uint64_t
FaultInjector::maybeFlipBit(const char *site, uint64_t value)
{
    // Corruption sites never honor armAnyNth: a flipped bit is a
    // *silent* fault (the store succeeds, nothing rolls back), so only
    // a test that armed the site by name — and therefore expects the
    // corruption — may trigger it. Fuzzers sweeping fail-stop sites
    // with armAnyNth must not silently corrupt state they then audit.
    if (!enabled_ || !fireCheck(site, /*allow_any=*/false))
        return value;
    return value ^ (1ULL << rng_.below(64));
}

uint64_t
FaultInjector::hits(const std::string &site) const
{
    const auto it = plans_.find(site);
    return it == plans_.end() ? 0 : it->second.hitCount;
}

std::vector<std::string>
FaultInjector::sitesSeen() const
{
    std::vector<std::string> sites;
    for (const auto &[name, p] : plans_) {
        if (p.hitCount > 0)
            sites.push_back(name);
    }
    return sites;
}

std::vector<std::string>
FaultInjector::sitesEverSeen() const
{
    return {everSeen_.begin(), everSeen_.end()};
}

const std::vector<std::string> &
FaultInjector::knownSites()
{
    // Keep sorted. Grep anchor: every FAULT_POINT("x") / maybeFlipBit
    // site string in src/ must appear here exactly once.
    static const std::vector<std::string> sites = {
        "hpmp.disable",
        "hpmp.program_segment",
        "hpmp.program_table",
        "iopmp.check",
        "migrate.ack_lost",
        "migrate.checkpoint_torn",
        "migrate.commit_crash",
        "migrate.dest_attest",
        "migrate.frame_corrupt",
        "migrate.frame_drop",
        "migrate.frame_dup",
        "monitor.add_gms",
        "monitor.alloc_pmpte",
        "monitor.attest",
        "monitor.destroy_domain",
        "monitor.heal_table",
        "monitor.hint",
        "monitor.remove_gms",
        "monitor.resume",
        "monitor.set_label",
        "monitor.set_perm",
        "monitor.share_gms",
        "monitor.suspend",
        "monitor.switch",
        "os.page_alloc",
        "os.pt_pool_miss",
        "pmpt.write_entry",
        "pmpt.write_entry.flip",
        "pmptw_cache.fill",
        "pwc.fill",
        "ras.poison_migrate",
        "ras.poison_on_fill",
        "ras.poison_scrub",
        "smp.hfence_ack",
        "smp.hfence_deliver",
        "smp.hfence_ipi",
        "smp.ipi_ack",
        "smp.ipi_deliver",
        "smp.satp_ipi",
        "tlb.fill",
    };
    return sites;
}

} // namespace hpmp
