#include "monitor/merkle.h"

#include <bit>
#include <vector>

#include "base/bitfield.h"
#include "base/hash.h"
#include "base/logging.h"

namespace hpmp
{

namespace
{

/** FNV-1a of an all-zero page: the hash of every unbacked page. */
constexpr MerkleHash kZeroPageHash = fnvZeros(kPageSize);

/** Combine two child hashes into a parent. */
MerkleHash
combine(MerkleHash left, MerkleHash right)
{
    MerkleHash pair[2] = {left, right};
    return fnvBytes(pair, sizeof(pair), kGoldenGamma);
}

/** Hash the page at page_base in place (no copy). */
MerkleHash
pageHash(const PhysMem &mem, Addr page_base)
{
    const uint8_t *data = mem.pageData(page_base);
    return data ? fnvBytes(data, kPageSize) : kZeroPageHash;
}

void
checkRegion(Addr base, uint64_t size)
{
    fatal_if(base % kPageSize || size % kPageSize || size == 0,
             "merkle region must be page aligned and non-empty");
}

} // namespace

MerkleHash
merkleRoot(const PhysMem &mem, Addr base, uint64_t size)
{
    checkRegion(base, size);
    const uint64_t pages = size / kPageSize;
    // Leaves past the region are the implicit zero padding.
    std::vector<MerkleHash> level(std::bit_ceil(pages), 0);
    for (uint64_t i = 0; i < pages; ++i)
        level[i] = pageHash(mem, base + i * kPageSize);
    for (uint64_t width = level.size(); width > 1; width /= 2) {
        // Runs of equal sibling pairs (unbacked pages, padding) are
        // the common case: reuse the previous pair's parent.
        MerkleHash left = 0, right = 0, parent = combine(0, 0);
        for (uint64_t i = 0; i < width / 2; ++i) {
            if (level[2 * i] != left || level[2 * i + 1] != right) {
                left = level[2 * i];
                right = level[2 * i + 1];
                parent = combine(left, right);
            }
            level[i] = parent;
        }
    }
    return level[0];
}

MerkleTree::MerkleTree(const PhysMem &mem, Addr base, uint64_t size)
    : mem_(mem),
      base_(base),
      size_(size)
{
    checkRegion(base, size);
    leaves_ = std::bit_ceil(size / kPageSize);

    // Leaves occupy heap indices [leaves_, 2*leaves_).
    for (uint64_t i = 0; i < leaves_; ++i)
        nodes_[leaves_ + i] = hashPage(i);
    for (uint64_t i = leaves_ - 1; i >= 1; --i)
        nodes_[i] = combine(nodes_[2 * i], nodes_[2 * i + 1]);
}

MerkleHash
MerkleTree::hashPage(uint64_t leaf_index) const
{
    if (leaf_index * kPageSize >= size_)
        return 0; // implicit zero padding
    return pageHash(mem_, base_ + leaf_index * kPageSize);
}

MerkleHash
MerkleTree::node(uint64_t index) const
{
    auto it = nodes_.find(index);
    panic_if(it == nodes_.end(), "unmounted merkle node %lu", index);
    return it->second;
}

uint64_t
MerkleTree::leafNode(Addr pa) const
{
    panic_if(pa < base_ || pa >= base_ + size_,
             "address %#lx outside merkle region", pa);
    return leaves_ + (pa - base_) / kPageSize;
}

bool
MerkleTree::verifyPage(Addr pa) const
{
    const uint64_t leaf = leafNode(pa);
    if (!mounted(leaf))
        return false;
    // Leaf must match memory...
    if (node(leaf) != hashPage(leaf - leaves_))
        return false;
    // ...and the path to the root must be internally consistent.
    for (uint64_t i = leaf / 2; i >= 1; i /= 2) {
        if (!mounted(2 * i) || !mounted(2 * i + 1) || !mounted(i))
            return false;
        if (node(i) != combine(node(2 * i), node(2 * i + 1)))
            return false;
    }
    return true;
}

void
MerkleTree::updatePage(Addr pa)
{
    const uint64_t leaf = leafNode(pa);
    panic_if(!mounted(leaf), "updatePage in unmounted subtree");
    nodes_[leaf] = hashPage(leaf - leaves_);
    for (uint64_t i = leaf / 2; i >= 1; i /= 2)
        nodes_[i] = combine(node(2 * i), node(2 * i + 1));
}

void
MerkleTree::unmountSubtree(Addr pa, unsigned levels)
{
    uint64_t top = leafNode(pa);
    for (unsigned i = 0; i < levels && top > 1; ++i)
        top /= 2;
    // Drop everything strictly below `top` within its subtree.
    std::vector<uint64_t> stack{2 * top, 2 * top + 1};
    while (!stack.empty()) {
        const uint64_t idx = stack.back();
        stack.pop_back();
        if (idx >= 2 * leaves_ || !mounted(idx))
            continue;
        nodes_.erase(idx);
        stack.push_back(2 * idx);
        stack.push_back(2 * idx + 1);
    }
}

bool
MerkleTree::remountSubtree(Addr pa, unsigned levels)
{
    uint64_t top = leafNode(pa);
    for (unsigned i = 0; i < levels && top > 1; ++i)
        top /= 2;

    // Recompute the subtree bottom-up into a staging map.
    std::unordered_map<uint64_t, MerkleHash> staging;
    // Find the leaf range under `top`.
    uint64_t lo = top, hi = top;
    while (lo < leaves_) {
        lo = 2 * lo;
        hi = 2 * hi + 1;
    }
    for (uint64_t leaf = lo; leaf <= hi; ++leaf)
        staging[leaf] = hashPage(leaf - leaves_);
    // Combine level by level, staying inside the subtree (skipped
    // when the "subtree" is a single leaf).
    if (top < leaves_) {
        for (uint64_t level_lo = lo / 2, level_hi = hi / 2;;
             level_lo /= 2, level_hi /= 2) {
            for (uint64_t idx = level_lo; idx <= level_hi; ++idx)
                staging[idx] = combine(staging[2 * idx],
                                       staging[2 * idx + 1]);
            if (level_lo == top)
                break;
        }
    }

    // The recomputed subtree root must match the retained hash.
    if (staging[top] != node(top))
        return false;
    for (const auto &[idx, hash] : staging)
        nodes_[idx] = hash;
    return true;
}

} // namespace hpmp
