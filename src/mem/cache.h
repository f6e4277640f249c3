/**
 * @file
 * Tag-only set-associative cache timing model.
 *
 * The data itself lives in PhysMem (functional state); this model only
 * tracks which lines are resident to attribute hit/miss latency, like
 * the timing side of gem5's classic caches. LRU replacement,
 * write-allocate; no level below reads dirtiness, so no dirty bit is
 * kept. Geometry follows Table 1 of the paper; the set count must be
 * a power of two, as every Table 1 geometry is.
 */

#ifndef HPMP_MEM_CACHE_H
#define HPMP_MEM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "base/addr.h"
#include "base/stats.h"

namespace hpmp
{

/** Geometry and latency of one cache level. */
struct CacheParams
{
    std::string name;       //!< for stats output
    uint64_t sizeBytes;     //!< total capacity
    unsigned assoc;         //!< ways per set
    unsigned lineBytes = 64;
    unsigned latency;       //!< hit latency contribution, core cycles
};

/** One level of tag-only cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look up (and on miss, fill) the line containing pa.
     * @return true on hit.
     */
    bool
    access(Addr pa)
    {
        const uint64_t set = setIndex(pa);
        const uint32_t want = tagWord(pa);

        // Hit scan first, over the set's contiguous tag words, without
        // a data-dependent branch: a set never holds a tag word twice
        // (lines fill only on a miss), so the last match is the only
        // one. Victim selection only runs on a miss.
        uint32_t *tags = block(set);
        const unsigned assoc = params_.assoc;
        unsigned hit = assoc;
        for (unsigned way = 0; way < assoc; ++way)
            hit = tags[way] == want ? way : hit;
        if (hit != assoc) {
            restamp(tags + assoc, hit);
            ++hits_;
            return true;
        }
        ++misses_;
        fillVictim(set, want);
        return false;
    }

    /** Look up without filling or LRU update (for tests / probes). */
    bool probe(Addr pa) const;

    /** Insert the line containing pa without counting a miss (warm-up). */
    void touch(Addr pa);

    /** Invalidate everything (cold state for TC1-style experiments). */
    void flushAll();

    /** Invalidate only the line containing pa, if resident. */
    void flushLine(Addr pa);

    unsigned latency() const { return params_.latency; }
    const CacheParams &params() const { return params_; }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    void resetStats() { hits_.reset(); misses_.reset(); }

  private:
    friend class CacheTestPeer;

    /**
     * The tag store is one block of 2 x assoc 32-bit words per set:
     * the set's tag words, then its LRU stamps, so an 8-way set is 64
     * host bytes. A tag word is `tag << 1 | valid`; an invalid way is
     * the word 0. A tag wider than 31 bits panics. That caps the
     * physical address at 2^(31 + log2(lineBytes x sets)): 2^43 for
     * the 64-set Table 1 L1s, the lowest ceiling in the hierarchy.
     */
    uint32_t
    tagWord(Addr pa) const
    {
        const uint64_t tag = tagOf(pa);
        if (tag >> 31) [[unlikely]]
            tagTooWide(pa);
        return uint32_t(tag << 1 | 1);
    }
    [[noreturn]] void tagTooWide(Addr pa) const;

    uint32_t *block(uint64_t set) { return &blocks_[set * blockWords_]; }
    const uint32_t *
    block(uint64_t set) const
    {
        return &blocks_[set * blockWords_];
    }

    uint64_t lineNumber(Addr pa) const { return pa >> lineShift_; }

    /**
     * Make `way` (of the set whose stamps start at `stamps`) the most
     * recently used. A way already holding the clock keeps it: only
     * the order of a set's stamps is ever read, and that order would
     * not change. Valid ways of a set thus hold distinct stamps >= 1;
     * invalid ways hold 0.
     */
    void
    restamp(uint32_t *stamps, unsigned way)
    {
        if (lruClock_ == kClockMax) [[unlikely]]
            renumberStamps();
        lruClock_ += stamps[way] != lruClock_;
        stamps[way] = lruClock_;
    }

    /** A stamp newer than every stamp in the store. */
    uint32_t
    nextStamp()
    {
        if (lruClock_ == kClockMax) [[unlikely]]
            renumberStamps();
        return ++lruClock_;
    }

    /**
     * Clock wrap: renumber every set's valid stamps 1..k in their
     * current order (invalid ways keep 0) and restart the clock at
     * assoc, above every renumbered stamp. Victim choice reads only
     * the order within a set, so no victim changes.
     */
    void renumberStamps();

    /**
     * Way of `set` to evict: the last invalid way if any, else the
     * lowest-stamp way.
     */
    unsigned victimOf(uint64_t set) const;

    /** Miss path of access()/touch(): refill the victim way. */
    void fillVictim(uint64_t set, uint32_t word);

    /** Way of `set` holding `word`, or -1. */
    int findWay(uint64_t set, uint32_t word) const;

    uint64_t setIndex(Addr pa) const { return lineNumber(pa) & setMask_; }
    uint64_t tagOf(Addr pa) const { return lineNumber(pa) >> setShift_; }

    // The 32-bit clock wraps (renumberStamps); the 31-bit tag does
    // not, so a physical address >= 2^43 panics in a Table 1 L1.
    static constexpr uint32_t kClockMax = UINT32_MAX;

    CacheParams params_;
    unsigned lineShift_;
    unsigned setShift_ = 0; //!< log2 of the set count
    uint64_t setMask_ = 0;  //!< set count - 1
    unsigned blockWords_;   //!< 2 x assoc: tag words, then stamps
    /** One block per set; larger stamp = more recent. */
    std::vector<uint32_t> blocks_;
    uint32_t lruClock_ = 0;

    Counter hits_;
    Counter misses_;
};

} // namespace hpmp

#endif // HPMP_MEM_CACHE_H
