/**
 * @file
 * Figure 13: guest memory-access latency (hlv.d-style) in the
 * virtualized environment, across five system states (TC1, after
 * hfence.vvma, after hfence.gvma, TC3, TC4) for PMP Table, HPMP,
 * HPMP-GPT and PMP, on RocketCore.
 */

#include "bench/common.h"
#include "workloads/virt_env.h"

namespace hpmp::bench
{
namespace
{

struct VirtCase
{
    uint64_t cycles[5] = {0, 0, 0, 0, 0};
};

VirtCase
measure(VirtScheme scheme)
{
    VirtCase result;
    const unsigned kSamples = 16;

    for (unsigned state = 0; state < 5; ++state) {
        VirtEnv env(CoreKind::Rocket, scheme);
        // Samples spaced one guest leaf-PT page apart.
        const Addr base = env.mapGuestPages(kSamples * 2 * 512);
        VirtMachine &vm = env.vm();

        uint64_t total = 0;
        for (unsigned s = 0; s < kSamples; ++s) {
            const Addr gva = base + pageAddr(uint64_t(s) * 2 * 512);
            const Addr neighbor = gva + kPageSize;
            vm.coldReset();

            switch (state) {
              case 0: // TC1: cold.
                break;
              case 1: // after hfence.vvma.
                (void)vm.access(gva, AccessType::Load);
                vm.hfenceVvma();
                break;
              case 2: // after hfence.gvma.
                (void)vm.access(gva, AccessType::Load);
                vm.hfenceGvma();
                break;
              case 3: // TC3: neighbour page walked, data warm.
                (void)vm.access(neighbor, AccessType::Load);
                break;
              case 4: // TC4: TLB hit.
                (void)vm.access(gva, AccessType::Load);
                (void)vm.access(gva, AccessType::Load);
                break;
            }

            const AccessOutcome out =
                vm.access(gva, AccessType::Load);
            if (!out.ok())
                fatal("virt bench faulted: %s", toString(out.fault));
            total += out.cycles;
        }
        result.cycles[state] = total / kSamples;
    }
    return result;
}

} // namespace

void
fig13_virt(Report &)
{
    banner("Figure 13: virtualized memory-access latency, cycles "
           "(RocketCore, Sv39 guest + Sv39x4 nested)");
    row({"", "TC1", "hfence.v", "hfence.g", "TC3", "TC4"});

    for (const VirtScheme scheme :
         {VirtScheme::Pmpt, VirtScheme::Hpmp, VirtScheme::HpmpGpt,
          VirtScheme::Pmp}) {
        const VirtCase result = measure(scheme);
        row({toString(scheme), std::to_string(result.cycles[0]),
             std::to_string(result.cycles[1]),
             std::to_string(result.cycles[2]),
             std::to_string(result.cycles[3]),
             std::to_string(result.cycles[4])});
    }
    std::printf("  Paper: PMPT 89.9%%-155%% over PMP; HPMP cuts the "
                "extra cost to 29.7%%-75.6%%; HPMP-GPT to "
                "16.3%%-26.8%%\n");
}

} // namespace hpmp::bench
