/**
 * @file
 * Where Fig. 13's hfence.v cell comes from (EXPERIMENTS.md "Known
 * fidelity gaps" 4). For each of the fig13_virt figure's 16 samples it
 * replays the hfence.v state — one guest load, hfence.vvma, the same
 * load again — under PMPT and HPMP and prints the measured access:
 * its cycles, its references by kind, the cycles of its pmpte reads,
 * and whether the root pmpte line of its first guest-PT check was in
 * the L1D beforehand.
 *
 * Build & run:  ./build/examples/fig13_hfence
 */

#include <cstdio>

#include "workloads/virt_env.h"

using namespace hpmp;

int
main()
{
    const unsigned kSamples = 16; // as in bench/fig13_virt.cc
    std::printf("scheme  s  cycles  npt gpt pmpte data gtlb  "
                "pmpte_root pmpte_leaf  root_line_in_l1d\n");
    for (const VirtScheme scheme : {VirtScheme::Pmpt, VirtScheme::Hpmp}) {
        VirtEnv env(CoreKind::Rocket, scheme);
        const Addr base = env.mapGuestPages(kSamples * 2 * 512);
        VirtMachine &vm = env.vm();
        const RefAttribution &attr = vm.machine().refAttr();
        uint64_t total = 0;
        for (unsigned s = 0; s < kSamples; ++s) {
            const Addr gva = base + pageAddr(uint64_t(s) * 2 * 512);
            vm.coldReset();
            (void)vm.access(gva, AccessType::Load);
            vm.hfenceVvma();

            // The guest-PT root page's root pmpte: the first pmpte the
            // measured access reads. A functional check (the PMPTW
            // cache is off), so nothing is timed or cached.
            const TwoStageResult walk = walkTwoStage(
                vm.mem(), vm.vsatpRoot(), vm.hgatpRoot(), gva,
                AccessType::Load, vm.guestPriv(), TwoStageConfig{});
            Addr gpt_root = 0;
            for (const VirtRef &ref : walk.refs) {
                if (ref.kind == VirtRefKind::GptPage && !gpt_root)
                    gpt_root = ref.spa;
            }
            const Addr root_pmpte =
                vm.hpmp()
                    .check(gpt_root, 8, AccessType::Load,
                           PrivMode::Supervisor)
                    .pmptRefs[0]
                    .pa;
            const bool in_l1d = vm.hier().l1d().probe(root_pmpte);

            const uint64_t root0 = attr.cycles(RefOrigin::PmpteRoot).sum();
            const uint64_t leaf0 = attr.cycles(RefOrigin::PmpteLeaf).sum();
            const AccessOutcome out = vm.access(gva, AccessType::Load);
            total += out.cycles;
            std::printf("%-6s %2u  %6lu  %3u %3u %5u %4u %4u  %10lu "
                        "%10lu  %s\n",
                        toString(scheme), s, (unsigned long)out.cycles,
                        out.nptRefs, out.gptRefs, out.pmptRefs,
                        out.dataRefs, out.gTlbHits,
                        (unsigned long)(attr.cycles(RefOrigin::PmpteRoot)
                                            .sum() - root0),
                        (unsigned long)(attr.cycles(RefOrigin::PmpteLeaf)
                                            .sum() - leaf0),
                        in_l1d ? "yes" : "no");
        }
        std::printf("%-6s mean %lu cycles\n\n", toString(scheme),
                    (unsigned long)(total / kSamples));
    }
    return 0;
}
