/**
 * @file
 * Mountable Merkle Tree (MMT) — Penglai's scalable memory-integrity
 * structure (paper Fig. 7; Penglai OSDI'21 §5).
 *
 * A binary hash tree over the 4 KiB pages of a protected region. The
 * "mountable" property bounds the monitor's in-memory state: subtrees
 * can be *unmounted* (their interior nodes dropped, keeping only the
 * subtree root hash) and re-mounted later, re-verifying against the
 * retained root. The secure monitor uses it to measure enclave memory
 * at creation and to detect physical tampering.
 *
 * Hashing is FNV-1a-based (not cryptographically strong — this is a
 * simulator; the structure and update/verify costs are the point). A
 * leaf is the exact FNV-1a of its page's bytes, read in place; a page
 * with no host backing reads as zeros and hashes to one constant.
 */

#ifndef HPMP_MONITOR_MERKLE_H
#define HPMP_MONITOR_MERKLE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/phys_mem.h"

namespace hpmp
{

/** 64-bit node hash. */
using MerkleHash = uint64_t;

/**
 * Root of the tree MerkleTree(mem, base, size) would build, computed
 * over one flat vector reduced level by level with no node map: the
 * cost of a measurement that never verifies, updates or remounts.
 */
MerkleHash merkleRoot(const PhysMem &mem, Addr base, uint64_t size);

/** Merkle tree over a contiguous physical region. */
class MerkleTree
{
  public:
    /**
     * Build the tree over [base, base+size) (page-aligned). Hashes
     * every page; the number of pages is rounded up to a power of
     * two with implicit zero leaves.
     */
    MerkleTree(const PhysMem &mem, Addr base, uint64_t size);

    MerkleHash rootHash() const { return node(1); }

    Addr base() const { return base_; }
    uint64_t size() const { return size_; }

    /**
     * Verify that the page containing pa still matches the tree.
     * @return false if the page content (or a needed interior node)
     * diverges, or if its subtree is unmounted.
     */
    bool verifyPage(Addr pa) const;

    /** Recompute the path for a legitimately modified page. */
    void updatePage(Addr pa);

    /**
     * Unmount the subtree of height `levels` above the page: interior
     * nodes below the retained ancestor are dropped. Verification
     * inside an unmounted subtree fails until remounted.
     */
    void unmountSubtree(Addr pa, unsigned levels);

    /**
     * Re-mount: rebuild the subtree from memory and check it against
     * the retained ancestor hash. @return false (and stays unmounted)
     * if the content was tampered with while unmounted.
     */
    bool remountSubtree(Addr pa, unsigned levels);

    /** Number of resident (mounted) nodes — the monitor's footprint. */
    size_t residentNodes() const { return nodes_.size(); }

    /** Pages covered (power-of-two padded). */
    uint64_t leafCount() const { return leaves_; }

  private:
    MerkleHash hashPage(uint64_t leaf_index) const;
    MerkleHash node(uint64_t index) const;
    bool mounted(uint64_t index) const { return nodes_.count(index); }
    uint64_t leafNode(Addr pa) const;

    const PhysMem &mem_;
    Addr base_;
    uint64_t size_;
    uint64_t leaves_; //!< power-of-two leaf count
    /** Heap-style node store: 1 = root, children of i at 2i, 2i+1. */
    std::unordered_map<uint64_t, MerkleHash> nodes_;
};

} // namespace hpmp

#endif // HPMP_MONITOR_MERKLE_H
