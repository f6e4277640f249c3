/**
 * @file
 * Two-stage (VS-stage + G-stage) translation for the RISC-V hypervisor
 * extension: guest page table (vsatp, Sv39) walked through the nested
 * page table (hgatp, Sv39x4).
 *
 * Produces the 3D-walk reference stream of the paper's Figure 8: each
 * guest-PT access is a guest-physical address that itself requires a
 * G-stage walk (nL2/nL1/nL0), for 16 references total on Sv39/Sv39x4.
 * An optional G-stage TLB hook lets the timing machine model hfence
 * semantics (hfence.vvma keeps G-stage translations cached, hfence.gvma
 * drops them).
 */

#ifndef HPMP_PT_TWO_STAGE_H
#define HPMP_PT_TWO_STAGE_H

#include <functional>
#include <optional>
#include <vector>

#include "pt/walker.h"

namespace hpmp
{

/** Category of one supervisor-physical reference in a 3D walk. */
enum class VirtRefKind : uint8_t { NptPage, GptPage, Data };

/** One supervisor-physical reference of the two-stage walk. */
struct VirtRef
{
    Addr spa = 0;
    VirtRefKind kind = VirtRefKind::Data;
    bool write = false;
    unsigned level = 0;
};

/** Result of a two-stage walk. */
struct TwoStageResult
{
    Fault fault = Fault::None;
    Addr gpa = 0;  //!< final guest-physical address
    Addr spa = 0;  //!< final supervisor-physical address
    Perm perm;     //!< effective permission (VS-stage leaf)
    Perm gPerm = Perm::rwx(); //!< G-stage leaf permission of the data
                              //!< translation
    bool user = false;        //!< VS-stage leaf U bit
    unsigned vsLeafLevel = 0; //!< VS-stage leaf level (0 = 4 KiB)
    /**
     * G-stage leaf level of the data translation. 0 when served from
     * the G-stage TLB hook, which caches at 4 KiB granularity.
     */
    unsigned gLeafLevel = 0;
    SmallVec<VirtRef, 40> refs;
    unsigned gstageWalks = 0;    //!< G-stage walks actually performed
    unsigned gstageTlbHits = 0;  //!< walks short-circuited by the hook

    bool ok() const { return fault == Fault::None; }

    /**
     * Largest page size a combined (gva -> spa) TLB entry may cache:
     * both stages must map contiguously at that size.
     */
    unsigned
    combinedLeafLevel() const
    {
        return vsLeafLevel < gLeafLevel ? vsLeafLevel : gLeafLevel;
    }
};

/** One cached G-stage translation handed back by the lookup hook. */
struct GStageHit
{
    Addr spaPage = 0; //!< supervisor-physical page base
    Perm perm;        //!< G-stage leaf permission
};

/**
 * G-stage translation cache hooks (4 KiB granularity): lookup returns
 * the supervisor-physical page base and G-stage leaf permission for a
 * guest-physical page base, or nullopt — including when the cached
 * permission does not allow `type`, so the full (and correctly
 * faulting) G-stage walk runs instead; fill is invoked after each
 * performed G-stage walk with the real leaf permission.
 */
struct GStageTlbHooks
{
    std::function<std::optional<GStageHit>(Addr gpa_page,
                                           AccessType type)> lookup;
    std::function<void(Addr gpa_page, Addr spa_page, Perm perm)> fill;
};

/**
 * Guest-side page-walk-cache hooks: a hit for (level, gva) supplies
 * the guest PTE directly, skipping both the guest-PT reference and
 * the G-stage walk that locating it would have required.
 */
struct VsPwcHooks
{
    std::function<std::optional<Pte>(unsigned level, Addr gva)> lookup;
    std::function<void(unsigned level, Addr gva, Pte pte)> fill;
};

/** Configuration of both stages. */
struct TwoStageConfig
{
    WalkConfig vsStage{PagingMode::Sv39, 0, true, true};
    WalkConfig gStage{PagingMode::Sv39, 2, true, true}; //!< Sv39x4
};

/**
 * Stage of the two-stage access path a fault originated from. The
 * RISC-V fault codes already encode this (page fault = VS-stage,
 * guest-page fault = G-stage, access fault = physical PMP/pmpte); this
 * enum names the mapping so oracles can attribute stale translations
 * to the table that should have denied them.
 */
enum class VirtFaultOrigin : uint8_t
{
    None,       //!< no fault
    GuestStage, //!< VS-stage (guest page table) page fault
    GStage,     //!< G-stage (nested page table) guest-page fault
    Phys,       //!< physical access fault (PMP / pmpte / bounds)
};

/** Human-readable origin name for diagnostics. */
const char *toString(VirtFaultOrigin origin);

/**
 * Walk guest virtual address `gva` for an access of `type` in guest
 * privilege `priv`, using the guest table rooted at `vsatp_root` and
 * the nested table rooted at `hgatp_root`.
 */
TwoStageResult walkTwoStage(PhysMem &mem, Addr vsatp_root, Addr hgatp_root,
                            Addr gva, AccessType type, PrivMode priv,
                            const TwoStageConfig &config,
                            const GStageTlbHooks *tlb = nullptr,
                            const VsPwcHooks *pwc = nullptr);

} // namespace hpmp

#endif // HPMP_PT_TWO_STAGE_H
