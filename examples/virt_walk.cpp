/**
 * @file
 * Virtualized 3D-walk anatomy (paper §6, Figure 8): a guest load
 * through guest PT + nested PT + permission table, with the full
 * supervisor-physical reference stream printed, under each of the
 * four protection methods.
 *
 * Build & run:  ./build/examples/virt_walk
 */

#include <cstdio>

#include "workloads/virt_env.h"

using namespace hpmp;

int
main()
{
    std::printf("One cold guest load (Sv39 guest PT, Sv39x4 nested "
                "PT, 2-level PMP Table):\n\n");

    for (const VirtScheme scheme :
         {VirtScheme::Pmp, VirtScheme::Pmpt, VirtScheme::Hpmp,
          VirtScheme::HpmpGpt}) {
        VirtEnv env(CoreKind::Rocket, scheme);
        const Addr gva = env.mapGuestPages(1);
        env.vm().coldReset();

        const AccessOutcome out =
            env.vm().access(gva, AccessType::Load);
        if (!out.ok()) {
            std::printf("%s: fault %s\n", toString(scheme),
                        toString(out.fault));
            continue;
        }
        std::printf("%-9s %2u NPT + %u GPT + %u data + %2u pmpte "
                    "= %2u refs, %4lu cycles\n",
                    toString(scheme), out.nptRefs, out.gptRefs,
                    out.dataRefs, out.pmptRefs, out.totalRefs(),
                    (unsigned long)out.cycles);
    }

    std::printf("\nhfence semantics (PMP Table, warm G-stage TLB):\n");
    VirtEnv env(CoreKind::Rocket, VirtScheme::Pmpt);
    const Addr gva = env.mapGuestPages(1);
    env.vm().coldReset();
    (void)env.vm().access(gva, AccessType::Load);

    env.vm().hfenceVvma();
    const auto after_v = env.vm().access(gva, AccessType::Load);
    std::printf("  after hfence.vvma: %u refs (%u NPT — G-stage "
                "translations survive)\n",
                after_v.totalRefs(), after_v.nptRefs);

    env.vm().hfenceGvma();
    const auto after_g = env.vm().access(gva, AccessType::Load);
    std::printf("  after hfence.gvma: %u refs (%u NPT — everything "
                "rewalked)\n",
                after_g.totalRefs(), after_g.nptRefs);
    return 0;
}
