/**
 * @file
 * Machine statistics tests: the "machine.*" counters must agree with
 * the per-access outcomes they aggregate.
 */

#include <gtest/gtest.h>

#include "workloads/micro_env.h"

namespace hpmp
{
namespace
{

TEST(MachineStats, CountersTrackOutcomes)
{
    MicroEnv env(rocketParams(), IsolationScheme::PmpTable);
    Machine &machine = env.machine();
    PageTable &pt = env.pt();
    pt.map(0x40000000, MicroEnv::kDataBase, Perm::rw(), true);
    machine.coldReset();

    StatGroup &stats = machine.stats();
    stats.resetAll();

    // One walk + one TLB hit.
    ASSERT_TRUE(machine.access(0x40000000, AccessType::Load).ok());
    ASSERT_TRUE(machine.access(0x40000000, AccessType::Load).ok());
    EXPECT_EQ(stats.get("accesses"), 2u);
    EXPECT_EQ(stats.get("walks"), 1u);
    EXPECT_EQ(stats.get("pt_refs"), 3u);
    EXPECT_EQ(stats.get("pmpt_refs"), 8u);
    EXPECT_EQ(stats.get("page_faults"), 0u);
    EXPECT_EQ(stats.get("access_faults"), 0u);

    // A page fault and an access fault.
    (void)machine.access(0x50000000, AccessType::Load);
    EXPECT_EQ(stats.get("page_faults"), 1u);
    pt.map(0x60000000, 8_GiB, Perm::rw(), true); // past the data region
    machine.sfenceVma();
    (void)machine.access(0x60000000, AccessType::Load);
    EXPECT_EQ(stats.get("access_faults"), 1u);

    const std::string dump = stats.dump();
    EXPECT_NE(dump.find("machine.accesses"), std::string::npos);
}

} // namespace
} // namespace hpmp
