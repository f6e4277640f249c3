/**
 * @file
 * HPMP — Hybrid Physical Memory Protection (paper §4).
 *
 * Extends the PMP register file with the Table-mode bit (T, the
 * previously reserved bit 5 of pmpcfg). A segment-mode entry checks
 * with its inline permission, zero extra references. A table-mode
 * entry borrows the *next* entry's address register as the base of a
 * PMP Table (PmptBaseReg, Fig. 6-b) and fetches the permission from
 * DRAM through the PMPTW, optionally short-circuited by the
 * PMPTW-Cache. Matching and priority are unchanged from PMP: the
 * lowest-numbered entry covering the access decides, which is what
 * lets Penglai-HPMP treat segments as a cache of the tables (§5).
 */

#ifndef HPMP_HPMP_HPMP_UNIT_H
#define HPMP_HPMP_HPMP_UNIT_H

#include "base/stats.h"
#include "mem/phys_mem.h"
#include "pmp/pmp.h"
#include "pmpt/pmp_table.h"
#include "pmpt/pmpt_walker.h"
#include "pmpt/pmptw_cache.h"

namespace hpmp
{

/**
 * A complete desired register-file image, built entry by entry with
 * the same encodings programSegment/programTable use. The monitor
 * composes one per applyLayout and HpmpUnit::applyImage diffs it
 * against the live registers, writing only the CSRs that changed —
 * the paper's incremental reprogramming path (steady-state domain
 * switches touch ~2 CSRs instead of all 32).
 */
struct LayoutImage
{
    std::vector<uint64_t> addr;
    std::vector<uint8_t> cfg;

    /** All entries start OFF/zero, i.e. "disabled" is the default. */
    explicit LayoutImage(unsigned entries)
        : addr(entries, 0), cfg(entries, 0)
    {
    }

    unsigned entries() const { return unsigned(addr.size()); }

    /** Entry idx as a NAPOT segment region (see programSegment). */
    void segment(unsigned idx, Addr base, uint64_t size, Perm perm);

    /**
     * Entry idx as a NAPOT table-mode region; consumes entry idx+1 for
     * the PmptBaseReg exactly like programTable.
     */
    void table(unsigned idx, Addr base, uint64_t size, Addr table_root,
               unsigned levels = 2);
};

/** Outcome of one HPMP permission check. */
struct HpmpCheckResult
{
    Fault fault = Fault::None;
    int entry = -1;        //!< matching entry, -1 = none
    bool viaTable = false; //!< resolved through a PMP Table walk
    bool viaCache = false; //!< resolved by the PMPTW-Cache
    /**
     * The permission the check resolved, meaningful when ok() and not
     * viaCache: rwx for M-mode, the segment's cfg permission, or the
     * fresh table walk's permission — exactly what probe() returns for
     * the same address, so a TLB fill can inline it without a second
     * walk. A PMPTW-Cache answer may come from a leaf that no longer
     * matches memory, so callers probe() in that case.
     */
    Perm perm;
    SmallVec<PmptRef, 4> pmptRefs; //!< pmpte references performed

    bool ok() const { return fault == Fault::None; }
};

/** The HPMP register file and permission checker. */
class HpmpUnit
{
  public:
    /**
     * @param mem           simulated physical memory holding the tables
     * @param num_entries   16 by default; 64 models the ePMP direction
     * @param pmptw_entries PMPTW-Cache size; 0 disables (paper default)
     */
    explicit HpmpUnit(PhysMem &mem, unsigned num_entries = 16,
                      unsigned pmptw_entries = 0);

    PmpUnit &regs() { return regs_; }
    const PmpUnit &regs() const { return regs_; }

    /**
     * Program entry idx as a NAPOT segment-mode region.
     *
     * Reprogramming (this, programTable and disable) flushes the
     * PMPTW-Cache so stale table permissions can never satisfy a later
     * check. The monitor must still sfence.vma / hfence.gvma on harts
     * whose TLBs may hold the old permission inlined (§7): the TLB's
     * physPerm copy is not visible to this unit.
     */
    void programSegment(unsigned idx, Addr base, uint64_t size, Perm perm);

    /**
     * Program entry idx as a NAPOT table-mode region whose permissions
     * come from the PMP Table rooted at table_root. Consumes entry
     * idx+1's address register for the base (Fig. 6-b); idx+1's config
     * is forced OFF. idx must not be the last entry (§4.3).
     */
    void programTable(unsigned idx, Addr base, uint64_t size,
                      Addr table_root, unsigned levels = 2);

    /** Turn entry idx off. */
    void disable(unsigned idx);

    /**
     * Diff `img` against the live registers and write only the CSRs
     * that differ. Fault-injection sites fire per *changed* entry
     * (hpmp.program_segment / hpmp.program_table / hpmp.disable by the
     * entry's desired kind) before the first write, so an injected
     * fault can never leave a half-applied image. Flushes the
     * PMPTW-Cache iff anything changed; callers that mutated table
     * *contents* must still flush explicitly.
     *
     * @return CSR writes performed (also added to csrWrites()).
     */
    unsigned applyImage(const LayoutImage &img);

    /**
     * Make this unit's registers identical to `src`'s, paying one CSR
     * write per differing register (the modelled cost of the IPI
     * handler re-programming its hart during a remote shootdown).
     * @return CSR writes performed.
     */
    unsigned syncRegsFrom(const HpmpUnit &src);

    /**
     * Check one physical access. Machine-mode accesses bypass the
     * check (entries are not locked in this model, matching the
     * monitor's own use); S/U accesses require a covering entry.
     */
    HpmpCheckResult check(Addr pa, uint64_t size, AccessType type,
                          PrivMode priv);

    /**
     * Functional S/U-view permission resolution for one page: same
     * matching and table walk as check(), but with no statistics, no
     * PMPTW-Cache access and no pmpte-reference accounting. Used for
     * TLB permission inlining and by the invariant checker.
     */
    Perm probe(Addr pa) const;

    /** Register-file + CSR-counter snapshot for monitor rollback. */
    struct Snapshot
    {
        PmpUnit::Snapshot regs;
        uint64_t csrWrites = 0;
    };

    Snapshot takeSnapshot() const;

    /** Restore a snapshot taken from this unit; flushes the PMPTW-Cache. */
    void restoreSnapshot(const Snapshot &snap);

    PmptwCache &pmptwCache() { return pmptwCache_; }

    /** Flush the PMPTW-Cache (entry/table update, domain switch). */
    void flushCache() { pmptwCache_.flush(); }

    /** Number of register (CSR) writes performed via the helpers. */
    uint64_t csrWrites() const { return csrWrites_.value(); }
    void resetCsrWrites() { csrWrites_.reset(); }

    /**
     * Register this unit's counters (checks, segment/table/cache
     * resolution split, denials, csr_writes) and derived rates into
     * `group`. The PMPTW-Cache registers separately
     * (pmptwCache().registerStats) so it can live in a child group.
     */
    void registerStats(StatGroup &group);

  private:
    PhysMem &mem_;
    PmpUnit regs_;
    PmptwCache pmptwCache_;
    Counter csrWrites_;
    Counter checks_;          //!< S/U checks performed (M-mode bypasses)
    Counter segmentChecks_;   //!< resolved by a segment entry, zero refs
    Counter tableWalks_;      //!< resolved by a full PMPTW walk
    Counter cacheResolved_;   //!< resolved by the PMPTW-Cache
    Counter denials_;         //!< checks that faulted
    Formula segmentShare_;
    Formula cacheShare_;
};

} // namespace hpmp

#endif // HPMP_HPMP_HPMP_UNIT_H
