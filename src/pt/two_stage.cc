#include "pt/two_stage.h"

namespace hpmp
{

namespace
{

/**
 * G-stage translation of one guest-physical address. Appends the NPT
 * references performed and returns the supervisor-physical address,
 * or nullopt on a guest page fault. `leaf_perm`/`leaf_level` (when
 * non-null) receive the G-stage leaf permission and level — a hook
 * hit reports level 0, the hook's caching granularity.
 */
std::optional<Addr>
gStageTranslate(PhysMem &mem, Addr hgatp_root, Addr gpa, AccessType type,
                const TwoStageConfig &config, const GStageTlbHooks *tlb,
                TwoStageResult &out, Perm *leaf_perm = nullptr,
                unsigned *leaf_level = nullptr)
{
    const Addr gpa_page = alignDown(gpa, kPageSize);
    if (tlb && tlb->lookup) {
        if (auto hit = tlb->lookup(gpa_page, type)) {
            ++out.gstageTlbHits;
            if (leaf_perm)
                *leaf_perm = hit->perm;
            if (leaf_level)
                *leaf_level = 0;
            return hit->spaPage + pageOffset(gpa);
        }
    }

    // G-stage PTEs behave as user-accessible mappings (the spec
    // requires U=1 on G-stage leaves), so walk in user privilege.
    WalkResult walk = walkPageTable(mem, hgatp_root, gpa, type,
                                    PrivMode::User, config.gStage);
    ++out.gstageWalks;
    for (const PtRef &ref : walk.refs)
        out.refs.push_back({ref.pa, VirtRefKind::NptPage, ref.write,
                            ref.level});
    if (!walk.ok()) {
        out.fault = guestPageFaultFor(type);
        return std::nullopt;
    }
    if (leaf_perm)
        *leaf_perm = walk.perm;
    if (leaf_level)
        *leaf_level = walk.leafLevel;
    if (tlb && tlb->fill)
        tlb->fill(gpa_page, alignDown(walk.pa, kPageSize), walk.perm);
    return walk.pa;
}

} // namespace

TwoStageResult
walkTwoStage(PhysMem &mem, Addr vsatp_root, Addr hgatp_root, Addr gva,
             AccessType type, PrivMode priv, const TwoStageConfig &config,
             const GStageTlbHooks *tlb, const VsPwcHooks *pwc)
{
    TwoStageResult result;
    const unsigned levels = ptLevels(config.vsStage.mode);

    Addr table_gpa = vsatp_root;
    for (unsigned lvl = levels; lvl-- > 0;) {
        const Addr slot_gpa =
            table_gpa + vpn(gva, lvl, levels, config.vsStage.rootExtraBits) * 8;

        // A guest-PWC hit supplies the PTE without touching memory
        // (neither the guest-PT page nor its G-stage walk).
        Pte pte;
        bool from_pwc = false;
        std::optional<Addr> slot_spa;
        if (pwc && pwc->lookup) {
            if (auto cached = pwc->lookup(lvl, gva)) {
                pte = *cached;
                from_pwc = true;
            }
        }

        if (!from_pwc) {
            // The implicit guest-PT read goes through the G-stage first.
            slot_spa = gStageTranslate(mem, hgatp_root, slot_gpa,
                                       AccessType::Load, config, tlb,
                                       result);
            if (!slot_spa)
                return result;
            result.refs.push_back({*slot_spa, VirtRefKind::GptPage, false,
                                   lvl});
            pte = Pte{mem.read64(*slot_spa)};
            if (pwc && pwc->fill && pte.v())
                pwc->fill(lvl, gva, pte);
        }
        if (!pte.v() || (!pte.r() && pte.w())) {
            result.fault = pageFaultFor(type);
            return result;
        }

        if (pte.isLeaf()) {
            const uint64_t span_pages = pageSizeAtLevel(lvl) / kPageSize;
            if (pte.ppn() & (span_pages - 1)) {
                result.fault = pageFaultFor(type);
                return result;
            }
            result.fault = checkLeafPerms(pte, type, priv,
                                          config.vsStage.sumSet);
            if (result.fault != Fault::None)
                return result;

            const bool need_a = !pte.a();
            const bool need_d = type == AccessType::Store && !pte.d();
            if (need_a || need_d) {
                if (!config.vsStage.hardwareAdUpdate) {
                    result.fault = pageFaultFor(type);
                    return result;
                }
                // A PWC hit does not carry the PTE's location; the
                // update forces the G-stage walk it had skipped.
                if (!slot_spa) {
                    slot_spa = gStageTranslate(mem, hgatp_root, slot_gpa,
                                               AccessType::Store, config,
                                               tlb, result);
                    if (!slot_spa)
                        return result;
                }
                pte.setA(true);
                if (type == AccessType::Store)
                    pte.setD(true);
                mem.write64(*slot_spa, pte.raw);
                result.refs.push_back({*slot_spa, VirtRefKind::GptPage,
                                       true, lvl});
            }

            const uint64_t span = pageSizeAtLevel(lvl);
            result.gpa = pte.physAddr() + (gva & (span - 1));
            result.perm = pte.perm();
            result.user = pte.u();
            result.vsLeafLevel = lvl;

            // The final data access also translates through the G-stage.
            auto data_spa = gStageTranslate(mem, hgatp_root, result.gpa,
                                            type, config, tlb, result,
                                            &result.gPerm,
                                            &result.gLeafLevel);
            if (!data_spa)
                return result;
            result.spa = *data_spa;
            result.refs.push_back({*data_spa, VirtRefKind::Data,
                                   type == AccessType::Store, 0});
            return result;
        }

        if (pte.a() || pte.d() || pte.u()) {
            result.fault = pageFaultFor(type);
            return result;
        }
        table_gpa = pte.physAddr();
    }

    result.fault = pageFaultFor(type);
    return result;
}

const char *
toString(VirtFaultOrigin origin)
{
    switch (origin) {
      case VirtFaultOrigin::None:       return "none";
      case VirtFaultOrigin::GuestStage: return "guest-stage";
      case VirtFaultOrigin::GStage:     return "g-stage";
      case VirtFaultOrigin::Phys:       return "pmpte";
    }
    return "?";
}

} // namespace hpmp
