/**
 * @file
 * Hardware page-table-walker model (functional part).
 *
 * Produces the ordered list of physical references a RISC-V PTW makes
 * for one translation, including hardware A/D-bit updates. The timing
 * machine replays these references through the protection checker and
 * the cache hierarchy, which is how the paper's 4-vs-12-vs-6 reference
 * counts arise naturally instead of being hard-coded.
 */

#ifndef HPMP_PT_WALKER_H
#define HPMP_PT_WALKER_H

#include "base/small_vec.h"
#include "mem/phys_mem.h"
#include "pt/pte.h"

namespace hpmp
{

/** One physical reference made during a walk. */
struct PtRef
{
    Addr pa = 0;
    bool write = false;   //!< A/D read-modify-write update
    unsigned level = 0;   //!< page-table level of the entry touched
};

/** Result of one full walk. */
struct WalkResult
{
    Fault fault = Fault::None;
    Addr pa = 0;              //!< translated physical address
    Perm perm;                //!< leaf permissions
    bool user = false;        //!< leaf U bit
    unsigned leafLevel = 0;   //!< 0 = 4 KiB leaf
    Addr leafPteAddr = 0;     //!< where the leaf PTE lives
    /** PT-page references in walk order (<= levels + A/D write). */
    SmallVec<PtRef, 8> refs;

    bool ok() const { return fault == Fault::None; }
};

/** Options mirroring the relevant satp/hstatus/sstatus state. */
struct WalkConfig
{
    PagingMode mode = PagingMode::Sv39;
    unsigned rootExtraBits = 0; //!< 2 for Sv39x4 G-stage
    bool sumSet = true;         //!< S-mode may touch U pages (Linux)
    bool hardwareAdUpdate = true; //!< Svadu-style A/D update vs. fault
};

/**
 * Walk `va` starting at root table `root_pa` for an access of `type`
 * in privilege `priv`. Purely functional on PhysMem except for A/D
 * updates (performed when hardwareAdUpdate is set).
 */
WalkResult walkPageTable(PhysMem &mem, Addr root_pa, Addr va,
                         AccessType type, PrivMode priv,
                         const WalkConfig &config);

/**
 * Permission check of a leaf's R/W/X and U bits against access type
 * and privilege; shared between the walker and the TLB hit path
 * (where it runs on every hit, hence inline).
 */
inline Fault
checkLeafPerms(Perm perm, bool user, AccessType type, PrivMode priv,
               bool sum_set)
{
    if (!perm.allows(type))
        return pageFaultFor(type);
    if (priv == PrivMode::User && !user)
        return pageFaultFor(type);
    if (priv == PrivMode::Supervisor && user) {
        // S-mode fetches from U pages always fault; loads/stores fault
        // unless SUM is set.
        if (type == AccessType::Fetch || !sum_set)
            return pageFaultFor(type);
    }
    return Fault::None;
}

/** checkLeafPerms on a leaf PTE's own bits. */
inline Fault
checkLeafPerms(const Pte &pte, AccessType type, PrivMode priv,
               bool sum_set)
{
    return checkLeafPerms(pte.perm(), pte.u(), type, priv, sum_set);
}

} // namespace hpmp

#endif // HPMP_PT_WALKER_H
