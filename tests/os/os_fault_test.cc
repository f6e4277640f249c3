/**
 * @file
 * OS allocator-exhaustion tests: typed OOM failures (tryMmap /
 * tryHandleFault), partial-population unwinding, and the §6 PT-pool
 * fallback path — a PT page that does not fit the contiguous pool
 * comes from the general allocator and is protected through the PMP
 * Table instead of the pool's fast segment.
 */

#include <gtest/gtest.h>

#include "base/fault_inject.h"
#include "core/smp.h"
#include "monitor/secure_monitor.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "os/page_alloc.h"

namespace hpmp
{
namespace
{

class OsFaultTest : public ::testing::Test
{
  protected:
    OsFaultTest()
    {
        smp = std::make_unique<SmpSystem>(rocketParams(), SmpParams{});
        machine = &smp->hart(0);
        MonitorConfig mc;
        mc.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, mc);
    }

    ~OsFaultTest() override { FaultInjector::instance().disable(); }

    std::unique_ptr<SmpSystem> smp;
    Machine *machine = nullptr; //!< hart 0 of smp
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(OsFaultTest, TryMmapReportsExhaustionAndUnwinds)
{
    KernelConfig config;
    // 32 MiB domain: 16 MiB PT pool + 16 MiB of data frames.
    Kernel kernel(*monitor, 0, 2_GiB, 32_MiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);
    auto as = kernel.createAddressSpace();

    const uint64_t free_before = kernel.dataAllocator().freeBytes();
    // More than the data region holds: typed failure, not fatal().
    EXPECT_FALSE(as->tryMmap(64_MiB, Perm::rw()).has_value());
    // The partial population was unwound completely.
    EXPECT_EQ(as->populatedPages(), 0u);
    EXPECT_EQ(kernel.dataAllocator().freeBytes(), free_before);

    // The address space still works after the failure.
    const auto va = as->tryMmap(1_MiB, Perm::rw());
    ASSERT_TRUE(va.has_value());
    EXPECT_TRUE(as->pageTable().translate(*va).has_value());
}

TEST_F(OsFaultTest, MapAtUnwindsPartialPopulation)
{
    KernelConfig config;
    config.ptPoolBytes = 1_MiB;
    // 2 MiB domain: 1 MiB pool + 1 MiB (256 frames) of data.
    Kernel kernel(*monitor, 0, 2_GiB, 2_MiB, config);
    auto as = kernel.createAddressSpace();

    const uint64_t free_before = kernel.dataAllocator().freeBytes();
    // 2 MiB of data cannot fit: population fails partway through.
    EXPECT_FALSE(as->mapAt(0x50000000, 2_MiB, Perm::rw(), true, true));
    EXPECT_EQ(as->populatedPages(), 0u);
    EXPECT_EQ(kernel.dataAllocator().freeBytes(), free_before);
    EXPECT_FALSE(as->pageTable().translate(0x50000000).has_value());

    // A request that fits succeeds afterwards.
    EXPECT_TRUE(as->mapAt(0x50000000, 256_KiB, Perm::rw(), true, true));
}

TEST_F(OsFaultTest, PageAllocFaultSiteGivesTypedOom)
{
    KernelConfig config;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    auto as = kernel.createAddressSpace();
    const Addr va = as->mmap(4 * kPageSize, Perm::rw(), true, false);

    FaultInjector &injector = FaultInjector::instance();
    injector.enable(11);
    injector.armProb("os.page_alloc", 1.0);

    // Every allocation path reports typed exhaustion while armed.
    EXPECT_FALSE(kernel.allocData(1).has_value());
    EXPECT_EQ(as->tryHandleFault(va, AccessType::Store),
              AddressSpace::FaultHandleStatus::OutOfMemory);
    EXPECT_FALSE(as->populated(va));
    EXPECT_EQ(as->pageFaults(), 0u);
    EXPECT_FALSE(as->tryMmap(kPageSize, Perm::rw()).has_value());
    // The legacy entry point reads OOM as "unhandled", never aborts.
    EXPECT_FALSE(as->handleFault(va, AccessType::Store));

    injector.disable();
    // The same fault handles fine once the "exhaustion" clears.
    EXPECT_EQ(as->tryHandleFault(va, AccessType::Store),
              AddressSpace::FaultHandleStatus::Handled);
    EXPECT_TRUE(as->populated(va));
}

TEST_F(OsFaultTest, PopulatedBitsFollowEveryMappingPath)
{
    KernelConfig config;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    auto as = kernel.createAddressSpace();

    // Populated mmap: every page present, nothing outside the VMA.
    const Addr eager = as->mmap(8 * kPageSize, Perm::rw(), true, true);
    EXPECT_EQ(as->populatedPages(), 8u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(as->populated(eager + pageAddr(i) + 0x123));
    EXPECT_FALSE(as->populated(eager - 1));
    EXPECT_FALSE(as->populated(eager + pageAddr(8)));

    // Demand fault: exactly the faulted page turns present.
    const Addr lazy = as->mmap(4 * kPageSize, Perm::rw(), true, false);
    EXPECT_EQ(as->populatedPages(), 8u);
    ASSERT_TRUE(as->handleFault(lazy + kPageSize + 8, AccessType::Store));
    EXPECT_FALSE(as->populated(lazy));
    EXPECT_TRUE(as->populated(lazy + kPageSize));
    EXPECT_FALSE(as->populated(lazy + 2 * kPageSize));
    EXPECT_EQ(as->populatedPages(), 9u);

    // A mapFrameAt window is in the page table but owns no frame.
    const Addr window = 0x70000000;
    ASSERT_TRUE(as->mapFrameAt(window, kernel.allocPtFrames(1),
                               Perm::rw(), false));
    EXPECT_TRUE(as->pageTable().translate(window).has_value());
    EXPECT_FALSE(as->populated(window));
    EXPECT_EQ(as->populatedPages(), 9u);

    // Injected OOM partway through a populating mapAt: the unwind
    // clears every bit it set and returns every frame.
    const Addr fixed = 0x60000000;
    const uint64_t free_before = kernel.dataAllocator().freeBytes();
    const uint64_t populated_before =
        kernel.osStats().pagesPopulated.value();
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(3);
    injector.armNth("os.page_alloc", 6);
    EXPECT_FALSE(as->mapAt(fixed, 16 * kPageSize, Perm::rw(), true,
                           true));
    injector.disable();
    EXPECT_GT(kernel.osStats().pagesPopulated.value(), populated_before);
    EXPECT_EQ(kernel.osStats().mmapUnwinds.value(), 1u);
    EXPECT_EQ(as->populatedPages(), 9u);
    EXPECT_EQ(kernel.dataAllocator().freeBytes(), free_before);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_FALSE(as->populated(fixed + pageAddr(i)));

    // The range maps cleanly afterwards; munmap clears each VMA.
    ASSERT_TRUE(as->mapAt(fixed, 16 * kPageSize, Perm::rw(), true, true));
    EXPECT_EQ(as->populatedPages(), 25u);
    ASSERT_TRUE(as->munmap(eager, 8 * kPageSize));
    EXPECT_FALSE(as->populated(eager));
    EXPECT_EQ(as->populatedPages(), 17u);
    ASSERT_TRUE(as->munmap(lazy, 4 * kPageSize));
    EXPECT_FALSE(as->populated(lazy + kPageSize));
    EXPECT_EQ(as->populatedPages(), 16u);
    ASSERT_TRUE(as->munmap(fixed, 16 * kPageSize));
    EXPECT_EQ(as->populatedPages(), 0u);
    EXPECT_EQ(kernel.dataAllocator().freeBytes(),
              free_before + 9 * kPageSize);
}

TEST_F(OsFaultTest, PtPoolMissFallsBackToTableProtectedFrame)
{
    KernelConfig config;
    config.contiguousPtPool = true;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);
    auto as = kernel.createAddressSpace();
    // Warm mapping: all PT pages so far come from the pool.
    ASSERT_TRUE(as->mapAt(0x40000000, kPageSize, Perm::rw(), true, true));
    const Addr pool_end = kernel.ptPoolBase() + config.ptPoolBytes;
    for (Addr page : as->pageTable().ptPages())
        ASSERT_LT(page, pool_end);

    // One simulated pool miss: the next PT page takes the §6 fallback
    // into the general allocator.
    FaultInjector &injector = FaultInjector::instance();
    injector.enable(11);
    injector.armNth("os.pt_pool_miss", 1);
    // A far-away GiB needs two fresh PT nodes: the first allocation
    // takes the fallback, the second comes from the pool again.
    ASSERT_TRUE(as->mapAt(0x40000000 + (8ULL << 30), kPageSize,
                          Perm::rw(), true, true));
    injector.disable();

    std::vector<Addr> outside;
    for (Addr page : as->pageTable().ptPages()) {
        if (page >= pool_end)
            outside.push_back(page);
    }
    ASSERT_EQ(outside.size(), 1u);

    // The fallback PT page is still protected — through the PMP Table
    // (it lives in the slow data GMS), while pool PT pages resolve via
    // the pool's fast segment entry.
    const HpmpCheckResult via_table = machine->hpmp().check(
        outside[0], 8, AccessType::Load, PrivMode::Supervisor);
    EXPECT_TRUE(via_table.ok());
    EXPECT_TRUE(via_table.viaTable);
    const HpmpCheckResult via_segment = machine->hpmp().check(
        kernel.ptPoolBase(), 8, AccessType::Load, PrivMode::Supervisor);
    EXPECT_TRUE(via_segment.ok());
    EXPECT_FALSE(via_segment.viaTable);

    // Both address-space halves work: translation still resolves.
    EXPECT_TRUE(as->pageTable()
                    .translate(0x40000000 + (8ULL << 30))
                    .has_value());
}

} // namespace
} // namespace hpmp
