/**
 * @file
 * Randomized differential tests: the timing Machine must agree with
 * independent functional oracles on every outcome.
 *
 *  - Protection oracle: for random physical addresses, checkPhys must
 *    match a prediction computed from the programmed regions alone.
 *  - Translation oracle: for random virtual addresses under random
 *    mappings, access() faults exactly when the oracle says so and
 *    translates to the oracle's physical address.
 *  - Count invariant: with a 2-level table and no caches, pmptRefs is
 *    exactly 2x the number of checked references.
 */

#include <gtest/gtest.h>

#include <map>

#include "base/rng.h"
#include "core/machine.h"
#include "pmpt/pmp_table.h"
#include "pt/page_table.h"
#include "workloads/micro_env.h"

namespace hpmp
{
namespace
{

TEST(FuzzProtection, CheckPhysMatchesRegionOracle)
{
    Machine machine(rocketParams());
    PmpTable table(machine.mem(), bumpAllocator(64_MiB), 2);

    // Random non-overlapping regions with random perms, half in the
    // table, half as segments.
    struct Region
    {
        Addr base;
        uint64_t size;
        Perm perm;
        bool segment;
    };
    std::vector<Region> regions;
    Rng rng(0xfacade);
    Addr cursor = 1_GiB;
    unsigned seg_entry = 2;
    for (int i = 0; i < 12; ++i) {
        const uint64_t size = 64_KiB << rng.below(4);
        cursor = alignUp(cursor + rng.below(8) * 64_KiB, size);
        const Perm perm{rng.chance(0.8), rng.chance(0.5),
                        rng.chance(0.3)};
        const bool segment = i % 2 == 0 && seg_entry < 12;
        regions.push_back({cursor, size, perm, segment});
        if (segment) {
            machine.hpmp().programSegment(seg_entry++, cursor, size,
                                          perm);
        } else {
            table.setPerm(cursor, size, perm);
        }
        cursor += size;
    }
    machine.hpmp().programTable(12, 0, 16_GiB, table.rootPa());
    machine.setPriv(PrivMode::Supervisor);

    for (int trial = 0; trial < 4000; ++trial) {
        const Addr pa = alignDown(1_GiB + rng.below(4_GiB), 8);
        const AccessType type =
            AccessType(rng.below(2)); // Load or Store

        // Oracle: first covering region wins; segments were placed in
        // lower-numbered entries, but regions never overlap, so any
        // covering region decides. No region -> denied.
        Perm expect = Perm::none();
        for (const Region &region : regions) {
            if (pa >= region.base && pa + 8 <= region.base + region.size) {
                expect = region.perm;
                break;
            }
        }
        AccessOutcome out;
        const Fault fault = machine.checkPhys(pa, type, out);
        EXPECT_EQ(fault == Fault::None, expect.allows(type))
            << std::hex << pa << " " << toString(type);
    }
}

TEST(FuzzTranslation, AccessMatchesMappingOracle)
{
    MicroEnv env(rocketParams(), IsolationScheme::None);
    Machine &machine = env.machine();
    PageTable &pt = env.pt();

    std::map<uint64_t, std::pair<Addr, Perm>> oracle; // vpn -> (pa, perm)
    Rng rng(0x7e57);
    for (int i = 0; i < 300; ++i) {
        const Addr va = pageAddr(0x40000 + rng.below(1 << 16));
        const Addr pa = pageAddr(0x100000 + rng.below(1 << 18));
        const Perm perm{true, rng.chance(0.6), rng.chance(0.3)};
        if (pt.map(va, pa, perm, true))
            oracle[pageNumber(va)] = {pa, perm};
    }

    for (int trial = 0; trial < 4000; ++trial) {
        Addr va;
        if (rng.chance(0.7) && !oracle.empty()) {
            auto it = oracle.begin();
            std::advance(it, rng.below(oracle.size()));
            va = pageAddr(it->first) + alignDown(rng.below(kPageSize), 8);
        } else {
            va = pageAddr(0x40000 + rng.below(1 << 16)) +
                 alignDown(rng.below(kPageSize), 8);
        }
        const AccessType type = rng.chance(0.5) ? AccessType::Load
                                                : AccessType::Store;

        const auto entry = oracle.find(pageNumber(va));
        const AccessOutcome out = machine.access(va, type);
        if (entry == oracle.end()) {
            EXPECT_EQ(out.fault, pageFaultFor(type)) << std::hex << va;
        } else if (!entry->second.second.allows(type)) {
            EXPECT_EQ(out.fault, pageFaultFor(type)) << std::hex << va;
        } else {
            EXPECT_TRUE(out.ok()) << std::hex << va << ": "
                                  << toString(out.fault);
        }
    }
}

TEST(FuzzCounts, PmptRefsAreTwicePerCheckedRef)
{
    MachineParams params = rocketParams();
    params.pwcEntries = 0;   // no PWC: every PT level is referenced
    params.pmptwEntries = 0; // no PMPTW cache
    MicroEnv env(params, IsolationScheme::PmpTable);
    Machine &machine = env.machine();
    PageTable &pt = env.pt();
    Rng rng(0xc0ffee);
    std::vector<Addr> vas;
    for (int i = 0; i < 64; ++i) {
        const Addr va = pageAddr(0x40000 + rng.below(1 << 14));
        const Addr pa = 4_GiB + pageAddr(rng.below(1 << 14));
        if (pt.map(va, pa, Perm::rw(), true))
            vas.push_back(va);
    }

    for (const Addr va : vas) {
        machine.sfenceVma();
        const AccessOutcome out = machine.access(va, AccessType::Load);
        ASSERT_TRUE(out.ok());
        const unsigned checked = out.ptRefs + out.adRefs + out.dataRefs;
        EXPECT_EQ(out.pmptRefs, 2 * checked);
    }
}

TEST(FuzzTlb, HitsAndWalksAgreeOnTranslation)
{
    // Repeated access to the same VA must produce identical faults
    // and (via functional readback) identical bytes whether served by
    // the TLB or a fresh walk.
    MicroEnv env(rocketParams(), IsolationScheme::None);
    Machine &machine = env.machine();
    PageTable &pt = env.pt();
    Rng rng(0xbee);
    for (int i = 0; i < 50; ++i) {
        pt.map(pageAddr(0x40000 + i), 4_GiB + pageAddr(i * 7 % 64),
               Perm::rw(), true);
    }

    for (int trial = 0; trial < 1000; ++trial) {
        const Addr va = pageAddr(0x40000 + rng.below(50)) +
                        alignDown(rng.below(kPageSize), 8);
        const AccessOutcome walk = [&] {
            machine.sfenceVma();
            return machine.access(va, AccessType::Load);
        }();
        const AccessOutcome hit = machine.access(va, AccessType::Load);
        ASSERT_TRUE(walk.ok());
        ASSERT_TRUE(hit.ok());
        EXPECT_TRUE(hit.tlbHit);
        EXPECT_FALSE(walk.tlbHit);
    }
}

} // namespace
} // namespace hpmp
