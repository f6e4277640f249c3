/**
 * @file
 * Golden reference-attribution tests: the per-origin counters the
 * access engines record must reproduce the paper's motivating
 * arithmetic exactly — Fig. 2 (4 / 4 / 12 / 6 references per
 * TLB-missing Sv39 load) and Fig. 8 (16 / 48 / 24 / 18 for the 3D
 * walk). Every AccessOutcome ref field must equal the corresponding
 * attribution delta, so figures generated from --stats-json dumps are
 * derivable from (not merely near) the printed bench tables.
 */

#include <gtest/gtest.h>

#include "base/attribution.h"
#include "workloads/micro_env.h"
#include "workloads/virt_env.h"

namespace hpmp
{
namespace
{

/** Per-category totals folded out of a RefAttribution. */
struct RefCounts
{
    uint64_t data = 0;
    uint64_t ad = 0;
    uint64_t pt = 0;
    uint64_t gpt = 0;
    uint64_t npt = 0;
    uint64_t pmptRoot = 0;
    uint64_t pmptLeaf = 0;
    uint64_t pmptMid = 0;
    uint64_t total = 0;

    uint64_t pmpt() const { return pmptRoot + pmptMid + pmptLeaf; }
};

RefCounts
fold(const RefAttribution &attr)
{
    RefCounts c;
    c.data = attr.count(RefOrigin::Data);
    c.ad = attr.count(RefOrigin::AdUpdate);
    for (unsigned l = 0; l <= 4; ++l)
        c.pt += attr.count(ptOrigin(l));
    for (unsigned l = 0; l <= 3; ++l) {
        c.gpt += attr.count(gptOrigin(l));
        c.npt += attr.count(nptOrigin(l));
    }
    c.pmptRoot = attr.count(RefOrigin::PmpteRoot);
    c.pmptMid = attr.count(RefOrigin::PmpteMid);
    c.pmptLeaf = attr.count(RefOrigin::PmpteLeaf);
    c.total = attr.total();
    return c;
}

/** One cold TLB-missing load, exactly the Fig. 2 bench setup. */
struct ColdLoad
{
    AccessOutcome out;
    RefCounts attr;
};

ColdLoad
coldLoad(IsolationScheme scheme, PagingMode mode)
{
    MicroEnv env(rocketParams(), scheme, mode);
    env.pt().map(MicroEnv::kVaBase, MicroEnv::kDataBase, Perm::rw(), true);
    Machine &machine = env.machine();
    machine.coldReset();

    ColdLoad result;
    result.out = machine.access(MicroEnv::kVaBase, AccessType::Load);
    result.attr = fold(machine.refAttr());
    return result;
}

void
expectOutcomeMatchesAttribution(const ColdLoad &cold)
{
    EXPECT_EQ(cold.out.dataRefs, cold.attr.data);
    EXPECT_EQ(cold.out.adRefs, cold.attr.ad);
    EXPECT_EQ(cold.out.ptRefs, cold.attr.pt);
    EXPECT_EQ(cold.out.pmptRefs, cold.attr.pmpt());
    EXPECT_EQ(cold.out.totalRefs(), cold.attr.total);
}

TEST(Attribution, Fig2GoldenSv39RefCounts)
{
    // The paper's Fig. 2 row: 4 / 4 / 12 / 6 for Sv39.
    const ColdLoad base = coldLoad(IsolationScheme::None,
                                   PagingMode::Sv39);
    ASSERT_TRUE(base.out.ok());
    EXPECT_EQ(base.attr.total, 4u); // 3 PT levels + the data ref
    EXPECT_EQ(base.attr.pt, 3u);
    EXPECT_EQ(base.attr.data, 1u);
    EXPECT_EQ(base.attr.pmpt(), 0u);
    expectOutcomeMatchesAttribution(base);

    const ColdLoad pmp = coldLoad(IsolationScheme::Pmp,
                                  PagingMode::Sv39);
    ASSERT_TRUE(pmp.out.ok());
    EXPECT_EQ(pmp.attr.total, 4u); // segment checks cost no refs
    expectOutcomeMatchesAttribution(pmp);

    const ColdLoad pmpt = coldLoad(IsolationScheme::PmpTable,
                                   PagingMode::Sv39);
    ASSERT_TRUE(pmpt.out.ok());
    // Every one of the 4 base refs pays a 2-level PMPTW walk: one
    // root and one leaf pmpte each.
    EXPECT_EQ(pmpt.attr.total, 12u);
    EXPECT_EQ(pmpt.attr.pmptRoot, 4u);
    EXPECT_EQ(pmpt.attr.pmptLeaf, 4u);
    EXPECT_EQ(pmpt.attr.pmptMid, 0u);
    expectOutcomeMatchesAttribution(pmpt);

    const ColdLoad hpmp = coldLoad(IsolationScheme::Hpmp,
                                   PagingMode::Sv39);
    ASSERT_TRUE(hpmp.out.ok());
    // PT-pool refs resolve in the segment; only the data ref walks
    // the table.
    EXPECT_EQ(hpmp.attr.total, 6u);
    EXPECT_EQ(hpmp.attr.pmptRoot, 1u);
    EXPECT_EQ(hpmp.attr.pmptLeaf, 1u);
    expectOutcomeMatchesAttribution(hpmp);
}

TEST(Attribution, Fig2DeeperModesStayConsistent)
{
    for (const PagingMode mode : {PagingMode::Sv48, PagingMode::Sv57}) {
        for (const IsolationScheme scheme :
             {IsolationScheme::None, IsolationScheme::Pmp,
              IsolationScheme::PmpTable, IsolationScheme::Hpmp}) {
            const ColdLoad cold = coldLoad(scheme, mode);
            ASSERT_TRUE(cold.out.ok());
            expectOutcomeMatchesAttribution(cold);
        }
    }
    // Spot-check the Sv57 extremes: 6 base refs, x3 under PMP Table.
    EXPECT_EQ(coldLoad(IsolationScheme::None, PagingMode::Sv57)
                  .attr.total,
              6u);
    EXPECT_EQ(coldLoad(IsolationScheme::PmpTable, PagingMode::Sv57)
                  .attr.total,
              18u);
}

TEST(Attribution, Fig8Golden3dWalkRefCounts)
{
    // Fig. 8 / §6 golden totals per scheme for one cold guest load.
    const struct
    {
        VirtScheme scheme;
        uint64_t total;
    } rows[] = {
        {VirtScheme::Pmp, 16},
        {VirtScheme::Pmpt, 48},
        {VirtScheme::Hpmp, 24},
        {VirtScheme::HpmpGpt, 18},
    };

    for (const auto &row : rows) {
        VirtEnv env(CoreKind::Rocket, row.scheme);
        const Addr gva = env.mapGuestPages(1);
        env.vm().coldReset();

        // Snapshot before the access: env setup may itself have
        // replayed references.
        const RefCounts vm_before = fold(env.vm().refAttr());
        const RefCounts m_before =
            fold(env.vm().machine().refAttr());

        const AccessOutcome out =
            env.vm().access(gva, AccessType::Load);
        ASSERT_TRUE(out.ok()) << toString(row.scheme);

        const RefCounts vm_after = fold(env.vm().refAttr());
        const RefCounts m_after = fold(env.vm().machine().refAttr());

        // NPT/GPT/data references are attributed by the virt engine;
        // pmpte references by the inner machine's checker.
        EXPECT_EQ(out.nptRefs, vm_after.npt - vm_before.npt)
            << toString(row.scheme);
        EXPECT_EQ(out.gptRefs, vm_after.gpt - vm_before.gpt)
            << toString(row.scheme);
        EXPECT_EQ(out.dataRefs, vm_after.data - vm_before.data)
            << toString(row.scheme);
        EXPECT_EQ(out.pmptRefs,
                  m_after.pmpt() - m_before.pmpt())
            << toString(row.scheme);

        const uint64_t attributed =
            (vm_after.total - vm_before.total) +
            (m_after.pmpt() - m_before.pmpt());
        EXPECT_EQ(out.totalRefs(), attributed) << toString(row.scheme);
        EXPECT_EQ(out.totalRefs(), row.total) << toString(row.scheme);
    }
}

TEST(Attribution, LatencyDistributionsCoverEveryReference)
{
    // Each origin's cycle histogram samples once per counted ref, so
    // Fig. 10-style latency breakdowns read from the same registry.
    MicroEnv env(rocketParams(), IsolationScheme::None);
    env.pt().map(MicroEnv::kVaBase, MicroEnv::kDataBase, Perm::rw(), true);
    Machine &machine = env.machine();
    machine.coldReset();
    ASSERT_TRUE(machine.access(MicroEnv::kVaBase, AccessType::Load).ok());

    const RefAttribution &attr = machine.refAttr();
    for (unsigned i = 0; i < unsigned(RefOrigin::NumOrigins); ++i) {
        const RefOrigin origin = RefOrigin(i);
        EXPECT_EQ(attr.cycles(origin).count(), attr.count(origin))
            << toString(origin);
    }
    // The data reference cost something.
    EXPECT_GT(attr.cycles(RefOrigin::Data).sum(), 0u);
}

} // namespace
} // namespace hpmp
