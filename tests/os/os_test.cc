/**
 * @file
 * OS-model tests: page allocator (first-fit, NAPOT, scatter), kernel
 * PT pool policy and address spaces (mmap, demand paging, munmap).
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/hash.h"
#include "base/rng.h"
#include "core/smp.h"
#include "monitor/secure_monitor.h"
#include "os/address_space.h"
#include "os/kernel.h"
#include "os/page_alloc.h"

namespace hpmp
{
namespace
{

TEST(PageAllocator, FirstFitAndFree)
{
    PageAllocator alloc(1_GiB, 1_MiB);
    auto a = alloc.alloc(4);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(*a, 1_GiB);
    auto b = alloc.alloc(4);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, 1_GiB + 4 * kPageSize);

    alloc.free(*a, 4);
    auto c = alloc.alloc(2);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, 1_GiB); // reuses the freed hole
}

TEST(PageAllocator, ExhaustionReturnsNullopt)
{
    PageAllocator alloc(1_GiB, 4 * kPageSize);
    EXPECT_TRUE(alloc.alloc(4).has_value());
    EXPECT_FALSE(alloc.alloc(1).has_value());
}

TEST(PageAllocator, NapotAlignment)
{
    PageAllocator alloc(1_GiB, 64_MiB);
    ASSERT_TRUE(alloc.alloc(1).has_value()); // misalign the cursor
    auto region = alloc.allocNapot(1_MiB);
    ASSERT_TRUE(region.has_value());
    EXPECT_EQ(*region % 1_MiB, 0u);
}

TEST(PageAllocator, AllocTopTakesFromTheEnd)
{
    PageAllocator alloc(1_GiB, 1_MiB);
    auto top = alloc.allocTop(2);
    ASSERT_TRUE(top.has_value());
    EXPECT_EQ(*top, 1_GiB + 1_MiB - 2 * kPageSize);
    auto bottom = alloc.alloc(1);
    ASSERT_TRUE(bottom.has_value());
    EXPECT_EQ(*bottom, 1_GiB); // front unaffected
    alloc.free(*top, 2);
    EXPECT_EQ(alloc.freeBytes(), 1_MiB - kPageSize);
}

TEST(PageAllocator, ScatterFragmentsPlacement)
{
    PageAllocator contig(1_GiB, 64_MiB);
    PageAllocator scatter(1_GiB, 64_MiB);
    scatter.setScatter(true, 7);

    bool adjacent_contig = true, adjacent_scatter = true;
    Addr prev_c = 0, prev_s = 0;
    for (int i = 0; i < 64; ++i) {
        const Addr c = *contig.alloc(1);
        const Addr s = *scatter.alloc(1);
        if (i > 0) {
            adjacent_contig &= (c == prev_c + kPageSize);
            adjacent_scatter &= (s == prev_s + kPageSize);
        }
        prev_c = c;
        prev_s = s;
    }
    EXPECT_TRUE(adjacent_contig);
    EXPECT_FALSE(adjacent_scatter);
    EXPECT_GT(scatter.fragments(), 4u);
}

TEST(PageAllocator, ScatterPlacementGolden)
{
    // The scatter sequence decides every physical placement behind
    // the §8.8 fragmentation study and Table 3. This hash was recorded
    // from the first std::map implementation of the allocator (linear
    // walk to the k-th free interval); any change to the RNG draws or
    // to which interval is k-th moves it.
    PageAllocator alloc(1_GiB, 128_MiB);
    alloc.setScatter(true, 0x05ca7);
    Rng victims(0xf4ee);
    std::vector<Addr> live;
    uint64_t hash = kFnvBasis;
    for (int i = 0; i < 20000; ++i) {
        const auto pick = alloc.alloc(1);
        ASSERT_TRUE(pick.has_value());
        hash = fnvFold(hash, *pick);
        live.push_back(*pick);
        // Every fourth pick frees a random live frame, so later picks
        // also land in reopened holes.
        if (i % 4 == 3) {
            const size_t victim = victims.below(live.size());
            alloc.free(live[victim], 1);
            live[victim] = live.back();
            live.pop_back();
        }
    }
    EXPECT_EQ(hash, 0x5d936d780479853fULL);
    EXPECT_EQ(alloc.fragments(), 2362u);
    EXPECT_EQ(alloc.freeBytes(), 128_MiB - live.size() * kPageSize);
}

class KernelTest : public ::testing::Test
{
  protected:
    KernelTest()
    {
        smp = std::make_unique<SmpSystem>(rocketParams(), SmpParams{});
        machine = &smp->hart(0);
        MonitorConfig mc;
        mc.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*smp, mc);
    }

    std::unique_ptr<SmpSystem> smp;
    Machine *machine = nullptr; //!< hart 0 of smp
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(KernelTest, PtPoolKeepsPtPagesContiguous)
{
    KernelConfig config;
    config.contiguousPtPool = true;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    auto as = kernel.createAddressSpace();
    as->mmap(8_MiB, Perm::rw(), true, true);
    for (Addr page : as->pageTable().ptPages()) {
        EXPECT_GE(page, kernel.ptPoolBase());
        EXPECT_LT(page, kernel.ptPoolBase() + config.ptPoolBytes);
    }
    // The PT pool is registered as a fast GMS.
    bool found_fast = false;
    for (const Gms &gms : monitor->gmsOf(0)) {
        if (gms.base == kernel.ptPoolBase() &&
            gms.label == GmsLabel::Fast) {
            found_fast = true;
        }
    }
    EXPECT_TRUE(found_fast);
}

TEST_F(KernelTest, BaselineScattersPtPages)
{
    KernelConfig config;
    config.contiguousPtPool = false;
    config.scatterData = true;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);
    EXPECT_EQ(kernel.ptPoolBase(), 0u);

    auto as = kernel.createAddressSpace();
    // Map many spread-out regions to force several PT pages.
    for (int i = 0; i < 8; ++i) {
        as->mapAt(0x40000000 + (Addr(i) << 30), kPageSize, Perm::rw(),
                  true, true);
    }
    const auto &pages = as->pageTable().ptPages();
    ASSERT_GT(pages.size(), 4u);
    bool contiguous = true;
    for (size_t i = 1; i < pages.size(); ++i)
        contiguous &= pages[i] == pages[i - 1] + kPageSize;
    EXPECT_FALSE(contiguous);
}

TEST_F(KernelTest, AddressSpaceDemandPaging)
{
    KernelConfig config;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    auto as = kernel.createAddressSpace();
    const Addr va = as->mmap(4 * kPageSize, Perm::rw(), true, false);
    EXPECT_FALSE(as->populated(va));
    EXPECT_FALSE(as->pageTable().translate(va).has_value());

    EXPECT_TRUE(as->handleFault(va, AccessType::Store));
    EXPECT_TRUE(as->populated(va));
    EXPECT_TRUE(as->pageTable().translate(va).has_value());
    EXPECT_EQ(as->pageFaults(), 1u);

    // Re-faulting a populated page is rejected (it is a real fault).
    EXPECT_FALSE(as->handleFault(va, AccessType::Store));
    // Outside any VMA: unhandled.
    EXPECT_FALSE(as->handleFault(0x9990000000, AccessType::Load));
}

TEST_F(KernelTest, MunmapFreesFrames)
{
    KernelConfig config;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    auto as = kernel.createAddressSpace();
    const uint64_t before = kernel.dataAllocator().freeBytes();
    const Addr va = as->mmap(16 * kPageSize, Perm::rw(), true, true);
    EXPECT_EQ(kernel.dataAllocator().freeBytes(),
              before - 16 * kPageSize);
    EXPECT_TRUE(as->munmap(va, 16 * kPageSize));
    EXPECT_EQ(kernel.dataAllocator().freeBytes(), before);
    EXPECT_FALSE(as->munmap(va, 16 * kPageSize));
}

TEST_F(KernelTest, MapAtRejectsOverlap)
{
    KernelConfig config;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    auto as = kernel.createAddressSpace();
    ASSERT_TRUE(as->mapAt(0x50000000, 4 * kPageSize, Perm::rw(), true,
                          false));
    EXPECT_FALSE(as->mapAt(0x50002000, 4 * kPageSize, Perm::rw(), true,
                           false));
}

TEST_F(KernelTest, EndToEndAccessThroughMachine)
{
    KernelConfig config;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    auto as = kernel.createAddressSpace();
    const Addr va = as->mmap(kPageSize, Perm::rw(), true, true);
    kernel.activate(*as, PrivMode::User);

    const AccessOutcome out = machine->access(va, AccessType::Load);
    ASSERT_TRUE(out.ok()) << toString(out.fault);
    // HPMP scheme: PT refs free, data checked via the table -> 6 refs.
    EXPECT_EQ(out.totalRefs(), 6u);
}

TEST_F(KernelTest, OsStatsCountAllocationAndPagingTraffic)
{
    KernelConfig config;
    config.contiguousPtPool = true;
    Kernel kernel(*monitor, 0, 2_GiB, 1_GiB, config);
    ASSERT_TRUE(monitor->switchTo(0).ok);

    auto as = kernel.createAddressSpace();
    EXPECT_EQ(kernel.osStats().addressSpaces.value(), 1u);

    // Populated mmap: data allocs, PT-pool allocs and populated pages.
    const Addr va = as->mmap(4 * kPageSize, Perm::rw(), true, true);
    EXPECT_EQ(kernel.osStats().mmaps.value(), 1u);
    EXPECT_EQ(kernel.osStats().pagesPopulated.value(), 4u);
    EXPECT_GE(kernel.osStats().dataAllocs.value(), 4u);
    EXPECT_GT(kernel.osStats().ptPoolAllocs.value(), 0u);
    EXPECT_EQ(kernel.osStats().ptFallbackAllocs.value(), 0u);

    // Demand paging: an unpopulated page is faulted in and counted.
    const Addr lazy = as->mmap(kPageSize, Perm::rw(), true, false);
    kernel.activate(*as, PrivMode::User);
    ASSERT_TRUE(as->handleFault(lazy, AccessType::Load));
    EXPECT_EQ(kernel.osStats().pageFaultsHandled.value(), 1u);

    ASSERT_TRUE(as->munmap(va, 4 * kPageSize));
    EXPECT_EQ(kernel.osStats().munmaps.value(), 1u);
    EXPECT_GE(kernel.osStats().dataFrees.value(), 4u);

    // registerStats exposes the group (prefix-named) for --stats-json.
    StatRegistry registry;
    kernel.registerStats(registry, "os");
    ASSERT_NE(registry.find("os"), nullptr);
    EXPECT_EQ(registry.find("os")->get("mmaps"),
              kernel.osStats().mmaps.value());
    EXPECT_EQ(registry.find("os")->get("page_faults_handled"), 1u);
}

} // namespace
} // namespace hpmp
