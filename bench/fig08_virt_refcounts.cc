/**
 * @file
 * Figure 8 / §6: reference counts for one guest access through the
 * 3D page walk (Sv39 guest PT x Sv39x4 nested PT x 2-level permission
 * table): 16 base references, 48 under PMP Table, 24 under HPMP
 * (NPT pages in a segment), 18 under HPMP-GPT.
 */

#include "bench/common.h"
#include "workloads/virt_env.h"

namespace hpmp::bench
{

void
fig08_virt_refcounts(Report &report)
{
    Json captures = Json::object();
    banner("Figure 8 / Section 6: 3D-walk reference counts "
           "(Sv39 guest, Sv39x4 nested, 2-level PMP Table)");
    row({"", "NPT", "GPT", "data", "pmpte", "total"});

    for (const VirtScheme scheme :
         {VirtScheme::Pmp, VirtScheme::Pmpt, VirtScheme::Hpmp,
          VirtScheme::HpmpGpt}) {
        VirtEnv env(CoreKind::Rocket, scheme);
        const Addr gva = env.mapGuestPages(1);
        env.vm().coldReset();
        const AccessOutcome out =
            env.vm().access(gva, AccessType::Load);
        if (!out.ok())
            fatal("virt access faulted: %s", toString(out.fault));
        captures.add(toString(scheme), statsOf(env.vm()));
        row({toString(scheme), std::to_string(out.nptRefs),
             std::to_string(out.gptRefs), std::to_string(out.dataRefs),
             std::to_string(out.pmptRefs),
             std::to_string(out.totalRefs())});
    }
    std::printf("  Paper: 16 (PMP) / 48 (PMPT: +32) / 24 (HPMP: "
                "mitigates the 24 NPT checks) / 18 (HPMP-GPT)\n");
    report.json.add("fig08_virt_refcounts", std::move(captures));
}

} // namespace hpmp::bench
