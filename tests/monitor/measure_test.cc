/**
 * @file
 * Golden domain measurements. The values were recorded from the
 * byte-serial Merkle measurement that copied every page and hashed it
 * one byte at a time; the zero-aware in-place hash must reproduce them
 * bit for bit. The domains cover an all-sparse layout across two GMSs,
 * a GMS holding live Sv39 page-table frames, and pages that are backed
 * but all zero, which must measure like pages that were never touched.
 */

#include <gtest/gtest.h>

#include "base/frame_alloc.h"
#include "monitor/secure_monitor.h"
#include "pt/page_table.h"

namespace hpmp
{
namespace
{

class MeasureGoldenTest : public ::testing::Test
{
  protected:
    MeasureGoldenTest()
    {
        machine = std::make_unique<Machine>(rocketParams());
        MonitorConfig config;
        config.scheme = IsolationScheme::Hpmp;
        monitor = std::make_unique<SecureMonitor>(*machine, config);
    }

    DomainId
    domainWith(std::initializer_list<std::pair<Addr, uint64_t>> regions)
    {
        const DomainId id = monitor->createDomain();
        for (const auto &[base, size] : regions) {
            EXPECT_TRUE(monitor
                            ->addGms(id, {base, size, Perm::rwx(),
                                          GmsLabel::Slow})
                            .ok);
        }
        return id;
    }

    MerkleHash
    measure(DomainId id)
    {
        const auto result = monitor->measureDomain(id);
        EXPECT_TRUE(result.ok);
        return result.value;
    }

    PhysMem &mem() { return machine->mem(); }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<SecureMonitor> monitor;
};

TEST_F(MeasureGoldenTest, AllSparseDomain)
{
    // 12 MiB + 20 KiB (not a power of two of pages) plus 4 MiB that is
    // never written.
    const DomainId id =
        domainWith({{4_GiB, 12_MiB + 5 * kPageSize}, {5_GiB, 4_MiB}});
    mem().write64(4_GiB, 0x1122334455667788ULL);
    mem().write64(4_GiB + 3 * kPageSize + 0x7f8, 1);
    mem().write8(4_GiB + 9_MiB + 13, 0xa5);
    mem().write64(4_GiB + 12_MiB + 4 * kPageSize + 0xff0, ~0ULL);
    EXPECT_EQ(measure(id), 0xece63758be117d37ULL);
}

TEST_F(MeasureGoldenTest, DomainHoldingPageTableFrames)
{
    const DomainId id = domainWith({{6_GiB, 16_MiB + 3 * kPageSize}});
    PageTable table(mem(), bumpAllocator(6_GiB), PagingMode::Sv39);
    for (unsigned i = 0; i < 40; ++i) {
        const Addr va = 0x40000000ULL + i * 0x201000ULL;
        const Addr pa = 6_GiB + 1_MiB + i * kPageSize;
        ASSERT_TRUE(table.map(va, pa, i % 3 ? Perm::rw() : Perm::rx(),
                              i % 2 == 0));
        mem().write64(pa + 8 * i, 0xdead0000ULL + i);
    }
    EXPECT_GT(table.ptPages().size(), 3u);
    EXPECT_EQ(measure(id), 0x28e55d2c1ddacb96ULL);
}

TEST_F(MeasureGoldenTest, BackedZeroPagesMeasureLikeUnbackedOnes)
{
    const DomainId untouched = domainWith({{8_GiB, 8_MiB + kPageSize}});
    const DomainId zeroed = domainWith({{9_GiB, 8_MiB + kPageSize}});
    const size_t backed = mem().backedPages();
    for (unsigned p = 0; p < 7; ++p)
        mem().zeroPage(9_GiB + p * 300 * kPageSize);
    // A page that held data and was scrubbed back to zero.
    mem().write64(9_GiB + 5 * kPageSize + 64, 0x5eed);
    mem().zeroPage(9_GiB + 5 * kPageSize);
    ASSERT_EQ(mem().backedPages(), backed + 8);

    const MerkleHash golden = 0x0ad3cc6d02c3b78aULL;
    EXPECT_EQ(measure(untouched), golden);
    EXPECT_EQ(measure(zeroed), golden);
}

} // namespace
} // namespace hpmp
