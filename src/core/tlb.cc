#include "core/tlb.h"

#include "base/bitfield.h"
#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/trace.h"

namespace hpmp
{

Tlb::Tlb(unsigned l1_entries, unsigned l2_entries)
    : l1Entries_(l1_entries),
      l2Entries_(l2_entries),
      l1_(l1_entries),
      l1Index_(l1_entries),
      l2Mask_(l2_entries - 1),
      l2_(l2_entries)
{
    // An L1 of 0 entries just never caches; the direct-mapped L2 has
    // no slot to index into, and indexes by mask (Table 1's 1024).
    fatal_if(l2_entries == 0, "L2 TLB needs at least one entry");
    fatal_if(!isPowerOf2(l2_entries),
             "L2 TLB entries (%u) must be a power of two", l2_entries);
    l2Filled_.reserve(l2_entries);
}

void
Tlb::fill(Addr va, Addr pa_base, Perm perm, Perm phys_perm, bool user,
          unsigned level, Perm g_perm)
{
    // A dropped fill is benign — the next access just misses again —
    // which is exactly why the fuzzer is allowed to drop them.
    if (FAULT_POINT("tlb.fill"))
        return;
    DPRINTF(Tlb, "fill va=%#lx pa=%#lx level=%u\n", va, pa_base, level);

    TlbEntry entry;
    entry.vpn = pageNumber(va) >> (9 * level);
    entry.ppn = pageNumber(pa_base);
    entry.level = uint8_t(level);
    entry.perm = perm;
    entry.physPerm = phys_perm;
    entry.gPerm = g_perm;
    entry.user = user;
    entry.valid = true;

    // An existing entry that already translates va is replaced in
    // place (a refill after the mapping changed under the TLB).
    bool installed = false;
    const uint64_t vpn = pageNumber(va);
    for (unsigned lvl = 0; lvl < kMaxLeafLevels && !installed; ++lvl) {
        if (levelCount_[lvl] == 0)
            continue;
        const uint32_t slot = l1Index_.find(keyFor(vpn >> (9 * lvl), lvl));
        if (slot == LruIndex::kNone)
            continue;
        if (lvl == level) {
            l1_[slot] = entry;
            l1Index_.touch(slot);
        } else {
            decLevel(lvl);
            l1_[slot].valid = false;
            l1Index_.erase(slot);
            installL1(entry);
        }
        installed = true;
    }
    if (!installed)
        installL1(entry);

    // The direct-mapped L2 only holds base pages.
    if (level == 0) {
        const uint64_t slot = l2SlotOf(pageNumber(va));
        l2_[slot] = entry;
        if (l2Filled_.size() < l2Entries_)
            l2Filled_.push_back(uint32_t(slot));
    }
}

void
Tlb::flushAll()
{
    DPRINTF(Tlb, "flushAll\n");
    for (auto &entry : l1_)
        entry.valid = false;
    l1Index_.clear();
    for (unsigned lvl = 0; lvl < kMaxLeafLevels; ++lvl)
        levelCount_[lvl] = 0;
    levelMask_ = 0;
    // Only slots filled since the last flush can be valid. A full
    // record may have dropped slots, so it falls back to a sweep.
    if (l2Filled_.size() < l2Entries_) {
        for (const uint32_t slot : l2Filled_)
            l2_[slot].valid = false;
    } else {
        for (auto &entry : l2_)
            entry.valid = false;
    }
    l2Filled_.clear();
}

void
Tlb::flushPage(Addr va)
{
    const uint64_t vpn = pageNumber(va);
    for (unsigned lvl = 0; lvl < kMaxLeafLevels; ++lvl) {
        if (levelCount_[lvl] == 0)
            continue;
        const uint32_t slot = l1Index_.find(keyFor(vpn >> (9 * lvl), lvl));
        if (slot != LruIndex::kNone) {
            decLevel(lvl);
            l1_[slot].valid = false;
            l1Index_.erase(slot);
        }
    }
    TlbEntry &slot = l2_[l2SlotOf(vpn)];
    if (slot.valid && slot.level == 0 && slot.vpn == vpn)
        slot.valid = false;
}

void
Tlb::resetStats()
{
    l1Hits_.reset();
    l2Hits_.reset();
    misses_.reset();
}

void
Tlb::registerStats(StatGroup &group)
{
    group.add("l1_hits", &l1Hits_);
    group.add("l2_hits", &l2Hits_);
    group.add("misses", &misses_);
    hitRate_ = Formula([this]() {
        const double total =
            double(l1Hits_.value() + l2Hits_.value() + misses_.value());
        return total ? double(l1Hits_.value() + l2Hits_.value()) / total
                     : 0.0;
    });
    group.add("hit_rate", &hitRate_);
}

} // namespace hpmp
