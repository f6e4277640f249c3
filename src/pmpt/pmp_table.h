/**
 * @file
 * PMP Table builder/manager.
 *
 * Owns one multi-level permission table in simulated DRAM, mapping
 * offsets within the protected region to page permissions. The secure
 * monitor edits permissions through this class; the hardware walker
 * (pmpt_walker) reads the same bytes back. Entry-write counts are
 * tracked because the paper's TEE-operation latencies (Fig. 14) are
 * dominated by how many pmptes an update touches — including the
 * single-entry 32 MiB "huge" fast path.
 */

#ifndef HPMP_PMPT_PMP_TABLE_H
#define HPMP_PMPT_PMP_TABLE_H

#include <vector>

#include "base/frame_alloc.h"
#include "mem/phys_mem.h"
#include "pmpt/pmpte.h"

namespace hpmp
{

/** Builder/owner of one PMP Table rooted in simulated memory. */
class PmpTable
{
  public:
    /**
     * @param levels table depth; 2 (Mode 0, 16 GiB) by default, 3 via
     *        the reserved Mode extension (8 TiB).
     */
    PmpTable(PhysMem &mem, FrameAllocator alloc, unsigned levels = 2);

    Addr rootPa() const { return rootPa_; }
    unsigned levels() const { return levels_; }

    /** Bytes of region offset space this table can describe. */
    uint64_t coverage() const { return pmpt_geom::coverage(levels_); }

    /**
     * Set the permission for [offset, offset+len), page-granular.
     * With allow_huge, whole top-level-entry spans (32 MiB for 2-level
     * tables) that are aligned use a single huge pmpte — the paper's
     * single-write fast path for large allocations (Fig. 14-d); an
     * existing huge entry is split into a leaf table when a
     * finer-grained update lands inside it. Without allow_huge the
     * update always lands in leaf pmptes, which models the steady
     * state of page-interleaved ownership and keeps walks two-level.
     */
    void setPerm(uint64_t offset, uint64_t len, Perm perm,
                 bool allow_huge = false);

    /** Functional permission lookup (no timing). */
    Perm lookup(uint64_t offset) const;

    /** Whether the offset is described by a valid entry at all. */
    bool valid(uint64_t offset) const;

    /** Number of 64-bit pmpte stores performed since construction. */
    uint64_t entryWrites() const { return entryWrites_; }
    void resetEntryWrites() { entryWrites_ = 0; }

    /**
     * Mirror every pmpte store into an external running counter. The
     * monitor points all of its tables at one aggregate so per-call
     * write deltas are a scalar subtraction instead of a walk over
     * every domain's table (O(1) at fleet-scale domain counts). The
     * aggregate is not rewound by rollbackMeta(); the transactional
     * caller snapshots and restores it with its other scalars.
     */
    void setWriteAggregate(uint64_t *aggregate) { writeAggregate_ = aggregate; }

    /**
     * Corrupted pointer pmptes seen by lookup()/valid(): pointers whose
     * target is not a page this table ever allocated. Such entries are
     * reported (counted + warned) and treated as invalid rather than
     * chased into arbitrary memory.
     */
    uint64_t corruptPointers() const { return corruptPointers_; }

    /** Whether pa is a node page owned by this table. */
    bool isTablePage(Addr pa) const;

    /** Physical pages holding table nodes (root first). */
    const std::vector<Addr> &tablePages() const { return tablePages_; }

    /**
     * Undo journal for transactional monitor calls: while installed,
     * every pmpte store records (slot, previous value) so an aborted
     * call can restore the table bit-identically. The caller owns the
     * vector and replays it in reverse, storing each old value back
     * with a plain 64-bit write (no entry-write accounting).
     */
    struct JournalEntry
    {
        Addr slot = 0;
        uint64_t oldValue = 0;
    };
    using Journal = std::vector<JournalEntry>;

    void setJournal(Journal *journal) { journal_ = journal; }

    /**
     * Roll table-growth metadata back to a snapshot taken before a
     * failed transaction: drop node pages allocated since (their
     * contents have already been restored through the journal and the
     * frames themselves are reclaimed by the caller's frame allocator)
     * and restore the entry-write counter.
     */
    void rollbackMeta(size_t npages, uint64_t entry_writes);

  private:
    /** Write one pmpte and account for it. */
    void writeEntry(Addr slot, uint64_t value);

    /**
     * Recursive permission update of [offset, offset+len) within the
     * table node at node_pa spanning entries of `level`.
     */
    void setPermIn(Addr node_pa, unsigned level, uint64_t node_base,
                   uint64_t offset, uint64_t len, Perm perm,
                   bool allow_huge);

    /** Replace a huge/invalid entry with a pointer to a new node. */
    Addr expandEntry(Addr slot, unsigned child_level, Perm fill_perm,
                     bool fill_valid);

    PhysMem &mem_;
    FrameAllocator alloc_;
    unsigned levels_;
    Addr rootPa_;
    std::vector<Addr> tablePages_;
    uint64_t entryWrites_ = 0;
    uint64_t *writeAggregate_ = nullptr;
    // mutable: const read paths (lookup/valid) report corruption.
    mutable uint64_t corruptPointers_ = 0;
    Journal *journal_ = nullptr;
};

} // namespace hpmp

#endif // HPMP_PMPT_PMP_TABLE_H
