/**
 * @file
 * Figure 10 (+ Tables 1 and 2): memory-access latency of single ld/sd
 * instructions under PMP Table, HPMP and PMP, for the four test cases
 * TC1-TC4 on both Rocket and BOOM. Also prints the §8.1 headline:
 * the fraction of extra-dimensional walk cost HPMP mitigates.
 */

#include "bench/common.h"

namespace hpmp::bench
{
namespace
{

struct CaseResult
{
    uint64_t cycles[4] = {0, 0, 0, 0}; // TC1..TC4
};

/**
 * Measure one scheme/core/type. States per Table 2:
 *  TC1: everything cold.
 *  TC2: caches warm, TLB+PWC flushed.
 *  TC3: caches warm, PWC L2/L1 hit, L0 miss, TLB miss (neighbour page).
 *  TC4: everything warm (TLB hit, L1 hit).
 */
CaseResult
measure(const MachineParams &params, IsolationScheme scheme,
        AccessType type)
{
    CaseResult result;
    const unsigned kSamples = 32;

    for (unsigned tc = 0; tc < 4; ++tc) {
        MicroEnv env(params, scheme);
        // Spread samples so each one uses fresh L0/leaf state: a
        // 1025-page stride lands every sample in its own leaf PT page
        // *and* at a different slot within it, so PTE/pmpte/data
        // cache lines are distributed across sets like real VAs.
        const Addr base = env.mapPages(kSamples * 1025 + 2, 1, 1,
                                       /*dirty=*/false);
        Machine &m = env.machine();

        uint64_t total = 0;
        for (unsigned s = 0; s < kSamples; ++s) {
            const Addr va = base + pageAddr(uint64_t(s) * 1025) +
                            ((uint64_t(s) * 136 + 8) & 0xff8);
            const Addr neighbor = alignDown(va, kPageSize) + kPageSize +
                                  (va & 0xfff);

            m.coldReset();
            switch (tc) {
              case 0: // TC1: cold.
                break;
              case 1: // TC2: warm caches, then flush TLB/PWC.
                (void)m.access(va, type);
                m.sfenceVma();
                m.hpmp().flushCache();
                if (type == AccessType::Store)
                    env.cleanDirtyBit(va);
                break;
              case 2: { // TC3: walk the sibling page, then warm data.
                (void)m.access(neighbor, type);
                m.tlb().flushAll(); // new page -> TLB miss either way
                const auto data_pa = env.pt().translate(va);
                if (data_pa)
                    m.hier().warmLine(*data_pa, MemLevel::L1);
                if (type == AccessType::Store)
                    env.cleanDirtyBit(neighbor);
                break;
              }
              case 3: // TC4: fully warm.
                (void)m.access(va, type);
                (void)m.access(va, type);
                break;
            }

            const AccessOutcome out = m.access(va, type);
            if (!out.ok())
                fatal("bench access faulted: %s", toString(out.fault));
            total += out.cycles;
        }
        result.cycles[tc] = total / kSamples;
    }
    return result;
}

void
printTable1(const MachineParams &params)
{
    std::printf("  %-10s %-48s\n", params.name.c_str(),
                params.kind == CoreKind::Rocket
                    ? "in-order @ 1 GHz (Table 1)"
                    : "out-of-order @ 3.2 GHz (Table 1)");
    std::printf("    L1 %lu KiB / L2 %lu KiB / LLC %lu MiB, "
                "TLB %u+%u, PWC %u, PMPTW-cache %u\n",
                params.hier.l1d.sizeBytes / 1024,
                params.hier.l2.sizeBytes / 1024,
                params.hier.llc.sizeBytes / (1024 * 1024),
                params.l1TlbEntries, params.l2TlbEntries,
                params.pwcEntries, params.pmptwEntries);
}

void
runCore(CoreKind core, AccessType type)
{
    const MachineParams params = machineParams(core);
    const char *type_name = type == AccessType::Load ? "ld" : "sd";
    banner(std::string("Figure 10: ") + type_name + " latency (" +
           params.name + "), cycles. PMPTW-Cache disabled");

    const IsolationScheme schemes[3] = {IsolationScheme::PmpTable,
                                        IsolationScheme::Hpmp,
                                        IsolationScheme::Pmp};
    CaseResult results[3];
    for (int i = 0; i < 3; ++i)
        results[i] = measure(params, schemes[i], type);

    row({"", "TC1", "TC2", "TC3", "TC4"});
    for (int i = 0; i < 3; ++i) {
        row({toString(schemes[i]),
             std::to_string(results[i].cycles[0]),
             std::to_string(results[i].cycles[1]),
             std::to_string(results[i].cycles[2]),
             std::to_string(results[i].cycles[3])});
    }

    // §8.1 headline: how much of PMPT's extra cost HPMP mitigates.
    double lo = 1e9, hi = -1e9;
    for (int tc = 0; tc < 3; ++tc) { // TC4 has no extra cost
        const double extra_pmpt =
            double(results[0].cycles[tc]) - double(results[2].cycles[tc]);
        const double extra_hpmp =
            double(results[1].cycles[tc]) - double(results[2].cycles[tc]);
        if (extra_pmpt <= 0)
            continue;
        const double mitigated = 1.0 - extra_hpmp / extra_pmpt;
        lo = std::min(lo, mitigated);
        hi = std::max(hi, mitigated);
    }
    std::printf("  HPMP mitigates %.1f%%-%.1f%% of the extra walk cost "
                "(paper: 23.1%%-73.1%% BOOM, 47.7%%-72.4%% Rocket)\n",
                lo * 100.0, hi * 100.0);
}

} // namespace

void
fig10_latency(Report &)
{
    banner("Table 1: simulated machine configurations");
    printTable1(rocketParams());
    printTable1(boomParams());

    banner("Table 2: test-case state matrix");
    row({"", "Cache", "PWC(L2)", "PWC(L1)", "PWC(L0)", "TLB"});
    row({"TC1", "Cold", "Miss", "Miss", "Miss", "Miss"});
    row({"TC2", "Warm", "Miss", "Miss", "Miss", "Miss"});
    row({"TC3", "Warm", "Hit", "Hit", "Miss", "Miss"});
    row({"TC4", "Warm", "Hit", "Hit", "Hit", "Hit"});

    for (const CoreKind core : {CoreKind::Rocket, CoreKind::Boom}) {
        runCore(core, AccessType::Load);
        runCore(core, AccessType::Store);
    }
}

} // namespace hpmp::bench
