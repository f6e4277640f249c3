/**
 * @file
 * RISC-V page-table entry encoding (privileged spec v1.12) and the
 * Sv39/Sv48/Sv57 paging-mode geometry.
 */

#ifndef HPMP_PT_PTE_H
#define HPMP_PT_PTE_H

#include <cstdint>

#include "base/access.h"
#include "base/addr.h"
#include "base/bitfield.h"

namespace hpmp
{

/** Supported paging modes (number of radix levels differs). */
enum class PagingMode : uint8_t { Sv39 = 0, Sv48 = 1, Sv57 = 2 };

/** Number of page-table levels for a mode (Sv39 = 3). */
constexpr unsigned
ptLevels(PagingMode mode)
{
    switch (mode) {
      case PagingMode::Sv39: return 3;
      case PagingMode::Sv48: return 4;
      case PagingMode::Sv57: return 5;
    }
    return 3;
}

/** Number of virtual-address bits for a mode (Sv39 = 39). */
constexpr unsigned
vaBits(PagingMode mode)
{
    return 12 + 9 * ptLevels(mode);
}

/**
 * VPN index for a level; level counts from the leaf (level 0 indexes
 * the last-level table, level = ptLevels-1 indexes the root).
 * Sv39x4 widens the root index by `rootExtraBits` (2 for hypervisor
 * G-stage tables, which are 4 pages wide).
 */
constexpr uint64_t
vpn(Addr va, unsigned level, unsigned levels, unsigned root_extra_bits = 0)
{
    const unsigned lo = kPageShift + 9 * level;
    unsigned width = 9;
    if (level == levels - 1)
        width += root_extra_bits;
    return bits(va, lo + width - 1, lo);
}

/** Bytes mapped by a leaf PTE at `level` (level 0 = 4 KiB). */
constexpr uint64_t
pageSizeAtLevel(unsigned level)
{
    return kPageSize << (9 * level);
}

/**
 * One 64-bit RISC-V PTE. Bit layout (RV64):
 *   V=0 R=1 W=2 X=3 U=4 G=5 A=6 D=7, PPN = bits 53:10.
 */
struct Pte
{
    uint64_t raw = 0;

    Pte() = default;
    explicit Pte(uint64_t bits_val) : raw(bits_val) {}

    bool v() const { return bits(raw, 0); }
    bool r() const { return bits(raw, 1); }
    bool w() const { return bits(raw, 2); }
    bool x() const { return bits(raw, 3); }
    bool u() const { return bits(raw, 4); }
    bool g() const { return bits(raw, 5); }
    bool a() const { return bits(raw, 6); }
    bool d() const { return bits(raw, 7); }

    uint64_t ppn() const { return bits(raw, 53, 10); }
    Addr physAddr() const { return ppn() << kPageShift; }

    /** Non-leaf pointer: valid with R=W=X=0. */
    bool isPointer() const { return v() && !r() && !w() && !x(); }
    /** Leaf entry: valid with any of R/W/X set. */
    bool isLeaf() const { return v() && (r() || w() || x()); }

    Perm perm() const { return Perm{r(), w(), x()}; }

    void setA(bool val) { raw = insertBits(raw, 6, val); }
    void setD(bool val) { raw = insertBits(raw, 7, val); }

    /** Build a leaf PTE. */
    static Pte
    leaf(Addr pa, Perm perm, bool user, bool accessed = false,
         bool dirty = false)
    {
        uint64_t v = 1; // V
        v = insertBits(v, 1, perm.r);
        v = insertBits(v, 2, perm.w);
        v = insertBits(v, 3, perm.x);
        v = insertBits(v, 4, user);
        v = insertBits(v, 6, accessed);
        v = insertBits(v, 7, dirty);
        v = insertBits(v, 53, 10, pa >> kPageShift);
        return Pte{v};
    }

    /** Build a non-leaf pointer PTE. */
    static Pte
    pointer(Addr next_table_pa)
    {
        uint64_t v = 1; // V only
        v = insertBits(v, 53, 10, next_table_pa >> kPageShift);
        return Pte{v};
    }
};

} // namespace hpmp

#endif // HPMP_PT_PTE_H
