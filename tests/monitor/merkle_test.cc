/**
 * @file
 * Mountable-Merkle-tree tests: build/verify, tamper detection, legal
 * updates, mount/unmount footprint, tamper-while-unmounted, and the
 * flat measurement root against the tree's.
 */

#include <gtest/gtest.h>

#include "base/hash.h"
#include "base/rng.h"
#include "monitor/merkle.h"

namespace hpmp
{
namespace
{

class MerkleTest : public ::testing::Test
{
  protected:
    MerkleTest() : mem(1_GiB)
    {
        for (unsigned p = 0; p < kPages; ++p)
            mem.write64(kBase + p * kPageSize + 64, 0x1000 + p);
        tree = std::make_unique<MerkleTree>(mem, kBase,
                                            kPages * kPageSize);
    }

    static constexpr Addr kBase = 16_MiB;
    static constexpr unsigned kPages = 24; // padded to 32 leaves

    PhysMem mem;
    std::unique_ptr<MerkleTree> tree;
};

TEST_F(MerkleTest, BuildsAndVerifies)
{
    EXPECT_EQ(tree->leafCount(), 32u);
    for (unsigned p = 0; p < kPages; ++p)
        EXPECT_TRUE(tree->verifyPage(kBase + p * kPageSize)) << p;
}

TEST_F(MerkleTest, DetectsTampering)
{
    const MerkleHash root = tree->rootHash();
    mem.write64(kBase + 5 * kPageSize + 64, 0xbad);
    EXPECT_FALSE(tree->verifyPage(kBase + 5 * kPageSize));
    // Other pages are unaffected.
    EXPECT_TRUE(tree->verifyPage(kBase + 6 * kPageSize));
    EXPECT_EQ(tree->rootHash(), root); // tree state unchanged
}

TEST_F(MerkleTest, UpdateLegalizesModification)
{
    const MerkleHash old_root = tree->rootHash();
    mem.write64(kBase + 5 * kPageSize + 64, 0x600d);
    tree->updatePage(kBase + 5 * kPageSize);
    EXPECT_TRUE(tree->verifyPage(kBase + 5 * kPageSize));
    EXPECT_NE(tree->rootHash(), old_root); // root reflects the change
}

TEST_F(MerkleTest, DeterministicRoot)
{
    MerkleTree again(mem, kBase, kPages * kPageSize);
    EXPECT_EQ(again.rootHash(), tree->rootHash());
    mem.write64(kBase, 1);
    MerkleTree changed(mem, kBase, kPages * kPageSize);
    EXPECT_NE(changed.rootHash(), tree->rootHash());
}

TEST_F(MerkleTest, UnmountShrinksFootprintAndBlocksVerify)
{
    const size_t resident = tree->residentNodes();
    tree->unmountSubtree(kBase, /*levels=*/3); // 8-leaf subtree
    EXPECT_LT(tree->residentNodes(), resident);
    EXPECT_FALSE(tree->verifyPage(kBase));
    EXPECT_FALSE(tree->verifyPage(kBase + 7 * kPageSize));
    // Pages outside the subtree still verify.
    EXPECT_TRUE(tree->verifyPage(kBase + 8 * kPageSize));
}

TEST_F(MerkleTest, RemountRestoresVerification)
{
    tree->unmountSubtree(kBase, 3);
    EXPECT_TRUE(tree->remountSubtree(kBase, 3));
    EXPECT_TRUE(tree->verifyPage(kBase));
    EXPECT_TRUE(tree->verifyPage(kBase + 7 * kPageSize));
}

TEST_F(MerkleTest, TamperWhileUnmountedIsCaughtAtRemount)
{
    tree->unmountSubtree(kBase, 3);
    mem.write64(kBase + 2 * kPageSize, 0xbad);
    EXPECT_FALSE(tree->remountSubtree(kBase, 3));
    EXPECT_FALSE(tree->verifyPage(kBase + 2 * kPageSize));
}

TEST(MerkleHashFn, BasicProperties)
{
    uint8_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint8_t b[8] = {1, 2, 3, 4, 5, 6, 7, 9};
    EXPECT_NE(fnvBytes(a, 8), fnvBytes(b, 8));
    EXPECT_EQ(fnvBytes(a, 8), fnvBytes(a, 8));
    EXPECT_NE(fnvBytes(a, 8, 1), fnvBytes(a, 8, 2));
}

TEST(MerkleRoot, FlatRootMatchesTheMountableTree)
{
    // Regions of 1..67 pages (mostly not powers of two) over a mix of
    // unbacked pages, pages backed by zeroPage (all zero), and sparse
    // data pages.
    PhysMem mem(1_GiB);
    constexpr Addr kBase = 32_MiB;
    Rng rng(11);
    for (unsigned p = 0; p < 67; ++p) {
        const Addr page = kBase + p * kPageSize;
        switch (rng.below(3)) {
          case 0:
            break; // never touched: no host backing
          case 1:
            mem.zeroPage(page);
            break;
          default:
            for (unsigned w = rng.below(4); w < 5; ++w) {
                mem.write64(page + 8 * rng.below(kPageSize / 8),
                            rng.next());
            }
        }
    }
    for (uint64_t pages = 1; pages <= 67; ++pages) {
        for (const Addr base : {kBase, kBase + 3 * kPageSize}) {
            const uint64_t size = pages * kPageSize;
            EXPECT_EQ(merkleRoot(mem, base, size),
                      MerkleTree(mem, base, size).rootHash())
                << pages << " pages at " << base;
        }
    }
}

TEST(MerkleRoot, BackedZeroPageHashesLikeAnUnbackedOne)
{
    PhysMem mem(1_GiB);
    const MerkleHash unbacked = merkleRoot(mem, 8_MiB, 3 * kPageSize);
    mem.zeroPage(8_MiB + kPageSize);
    ASSERT_EQ(mem.backedPages(), 1u);
    EXPECT_EQ(merkleRoot(mem, 8_MiB, 3 * kPageSize), unbacked);
    mem.write8(8_MiB + kPageSize + 4095, 1);
    EXPECT_NE(merkleRoot(mem, 8_MiB, 3 * kPageSize), unbacked);
}

} // namespace
} // namespace hpmp
