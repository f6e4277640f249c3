/**
 * @file
 * Two-level TLB model with permission inlining.
 *
 * L1 is fully associative (32 entries, Table 1) and L2 is
 * direct-mapped (1024 entries). Entries cache the combined result of
 * translation *and* physical-memory permission checking ("TLB
 * inlining", paper §2.2/§7): a hit therefore requires no PMP/PMPT
 * activity at all, which is why the permission table only costs on
 * TLB misses in all schemes.
 *
 * The L1's fully-associative *capacity* semantics (any VPN in any
 * slot, true-LRU victim) are modelled with an O(1) per-level VPN hash
 * index (LruIndex) instead of a linear scan, so the simulator's
 * per-access hot path does constant work regardless of TLB size.
 */

#ifndef HPMP_CORE_TLB_H
#define HPMP_CORE_TLB_H

#include <bit>
#include <cstdint>
#include <vector>

#include "base/access.h"
#include "base/addr.h"
#include "base/indexed_lru.h"
#include "base/stats.h"
#include "pt/pte.h"

namespace hpmp
{

/**
 * One cached translation. Superpage leaves (level > 0) are cached at
 * their natural size in the fully-associative L1; the direct-mapped
 * L2 holds 4 KiB entries only (a common split in real designs).
 */
struct TlbEntry
{
    uint64_t vpn = 0;   //!< VPN of the mapping's base, >> 9*level
    uint64_t ppn = 0;   //!< PPN of the mapping's base page
    uint8_t level = 0;  //!< 0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB
    Perm perm;          //!< leaf PTE permission
    Perm physPerm;      //!< inlined physical (PMP/PMPT) permission
    /**
     * G-stage leaf permission for combined (two-stage) entries; rwx
     * for single-stage translations, where no G-stage exists.
     */
    Perm gPerm = Perm::rwx();
    bool user = false;
    bool valid = false;

    /** True iff this entry translates va. */
    bool
    matches(Addr va) const
    {
        return valid && (pageNumber(va) >> (9 * level)) == vpn;
    }

    /** Physical address for va (which must match). */
    Addr
    translate(Addr va) const
    {
        const uint64_t span_mask = pageSizeAtLevel(level) - 1;
        return pageAddr(ppn) + (va & span_mask);
    }
};

/** Where a TLB lookup hit. */
enum class TlbHitLevel { Miss, L1, L2 };

/** L1 fully-associative + L2 direct-mapped TLB pair. */
class Tlb
{
  public:
    Tlb(unsigned l1_entries, unsigned l2_entries);

    /**
     * Look up va; promotes L2 hits into L1.
     * @return the hit entry (owned by the TLB, valid until the next
     *         fill/flush), or nullptr on a miss.
     */
    const TlbEntry *
    lookup(Addr va, TlbHitLevel *level = nullptr)
    {
        const TlbEntry *entry = lookupL1(va);
        TlbHitLevel hit = TlbHitLevel::L1;
        if (!entry) {
            entry = lookupL2(va);
            hit = entry ? TlbHitLevel::L2 : TlbHitLevel::Miss;
        }
        if (level)
            *level = hit;
        return entry;
    }

    /**
     * First half of lookup(): probe the L1 only, counting a hit but
     * not a miss. A caller that gets nullptr must continue with
     * lookupL2(va) for the same access.
     */
    const TlbEntry *
    lookupL1(Addr va)
    {
        const uint64_t vpn = pageNumber(va);
        for (uint32_t mask = levelMask_; mask; mask &= mask - 1) {
            const unsigned lvl = unsigned(std::countr_zero(mask));
            const uint32_t slot =
                l1Index_.find(keyFor(vpn >> (9 * lvl), lvl));
            if (slot != LruIndex::kNone) {
                l1Index_.touch(slot);
                ++l1Hits_;
                return &l1_[slot];
            }
        }
        return nullptr;
    }

    /**
     * Second half of lookup(), after lookupL1(va) missed: probe the
     * direct-mapped L2, promoting a hit into L1, else count a miss.
     */
    const TlbEntry *
    lookupL2(Addr va)
    {
        const uint64_t vpn = pageNumber(va);
        TlbEntry &slot = l2_[l2SlotOf(vpn)];
        if (slot.valid && slot.level == 0 && slot.vpn == vpn) {
            ++l2Hits_;
            // Promote into L1 (evicting the true-LRU entry if full).
            const TlbEntry *promoted = installL1(slot);
            return promoted ? promoted : &slot;
        }

        ++misses_;
        return nullptr;
    }

    /**
     * Install a translation. `pa_base` is the physical base of the
     * (possibly super-) page; level > 0 entries go to L1 only.
     */
    void fill(Addr va, Addr pa_base, Perm perm, Perm phys_perm,
              bool user, unsigned level = 0, Perm g_perm = Perm::rwx());

    /**
     * sfence.vma with rs1=x0: drop everything. Clears the L1 and only
     * the L2 slots filled since the previous flushAll.
     */
    void flushAll();

    /** sfence.vma with a specific page. */
    void flushPage(Addr va);

    uint64_t l1Hits() const { return l1Hits_.value(); }
    uint64_t l2Hits() const { return l2Hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    void resetStats();

    /** Register l1_hits/l2_hits/misses and hit_rate into `group`. */
    void registerStats(StatGroup &group);

  private:
    /** Leaf levels a TLB entry can cache (Sv57 root leaf = level 4). */
    static constexpr unsigned kMaxLeafLevels = 5;

    static uint64_t
    keyFor(uint64_t vpn_at_level, unsigned level)
    {
        return (vpn_at_level << 3) | level;
    }

    uint64_t l2SlotOf(uint64_t vpn) const { return vpn & l2Mask_; }

    /**
     * Claim an L1 slot (evicting true-LRU if full) and install.
     * @return the installed entry, or nullptr when the L1 has no slots.
     */
    const TlbEntry *
    installL1(const TlbEntry &entry)
    {
        if (l1Entries_ == 0)
            return nullptr;
        const uint32_t slot =
            l1Index_.insert(keyFor(entry.vpn, entry.level));
        if (l1_[slot].valid)
            decLevel(l1_[slot].level);
        l1_[slot] = entry;
        incLevel(entry.level);
        return &l1_[slot];
    }

    void
    incLevel(unsigned level)
    {
        ++levelCount_[level];
        levelMask_ |= 1u << level;
    }

    void
    decLevel(unsigned level)
    {
        if (--levelCount_[level] == 0)
            levelMask_ &= ~(1u << level);
    }

    unsigned l1Entries_;
    unsigned l2Entries_;
    std::vector<TlbEntry> l1_;
    LruIndex l1Index_;
    /** Entries currently cached per level, to skip empty-level probes. */
    unsigned levelCount_[kMaxLeafLevels] = {};
    uint32_t levelMask_ = 0; //!< bit l set iff levelCount_[l] > 0
    uint64_t l2Mask_;          //!< l2Entries_ - 1 (a power of two)
    std::vector<TlbEntry> l2_; //!< direct mapped by vpn & l2Mask_
    /**
     * L2 slots filled since the last flushAll (repeats allowed), so a
     * flush clears those instead of sweeping every slot. Recording
     * stops at l2Entries_ entries; a full record means "sweep all".
     */
    std::vector<uint32_t> l2Filled_;

    Counter l1Hits_;
    Counter l2Hits_;
    Counter misses_;
    Formula hitRate_;
};

} // namespace hpmp

#endif // HPMP_CORE_TLB_H
