/**
 * @file
 * Tag-only set-associative cache timing model.
 *
 * The data itself lives in PhysMem (functional state); this model only
 * tracks which lines are resident to attribute hit/miss latency, like
 * the timing side of gem5's classic caches. LRU replacement,
 * write-allocate; no level below reads dirtiness, so no dirty bit is
 * kept. Geometry follows Table 1 of the paper.
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
        const uint64_t first = setIndex(pa) * params_.assoc;
        const uint64_t want = tagWord(tagOf(pa));

        // Hit scan first, over the set's contiguous tag words, without
        // a data-dependent branch: a set never holds a tag word twice
        // (lines fill only on a miss), so the last match is the only
        // one. Victim selection only runs on a miss.
        const uint64_t *tags = &tags_[first];
        const unsigned assoc = params_.assoc;
        unsigned hit = assoc;
        for (unsigned way = 0; way < assoc; ++way)
            hit = tags[way] == want ? way : hit;
        if (hit != assoc) {
            stamp(first + hit);
            ++hits_;
            return true;
        }
        ++misses_;
        fillVictim(first, want);
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

    /**
     * Cache-line locking (Penglai's side-channel/latency defence,
     * paper Fig. 7): pin the line containing pa so replacement never
     * evicts it. @return false if every way of its set is already
     * locked (at least one way must stay evictable).
     */
    bool lockLine(Addr pa);

    /** Release a pinned line. */
    void unlockLine(Addr pa);

    /** Number of currently locked lines. */
    uint64_t lockedLines() const { return lockedLines_; }

    unsigned latency() const { return params_.latency; }
    const CacheParams &params() const { return params_; }

    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    void resetStats() { hits_.reset(); misses_.reset(); }

  private:
    /**
     * The tag store keeps one word per way, `tag << 1 | valid`, with
     * each set's ways contiguous so a hit scan reads one run of words.
     * An invalid way is the word 0. Recency stamps and lock flags live
     * in parallel arrays indexed the same way (set * assoc + way).
     */
    static uint64_t tagWord(uint64_t tag) { return tag << 1 | 1; }
    static bool validWord(uint64_t word) { return word & 1; }

    uint64_t lineNumber(Addr pa) const { return pa >> lineShift_; }

    /**
     * Make way `i` the most recently used. A way already holding the
     * newest stamp keeps it: only the relative order of stamps is
     * ever read, and that order would not change. Valid ways thus hold
     * distinct stamps >= 1; invalid ways hold 0.
     */
    void
    stamp(uint64_t i)
    {
        if (stamps_[i] != lruClock_)
            stamps_[i] = ++lruClock_;
    }

    /**
     * Way of the set starting at `first` to evict: the last invalid
     * unlocked way if any, else the lowest-stamp unlocked way.
     */
    uint64_t victimOf(uint64_t first) const;

    /** Miss path of access()/touch(): refill the victim way. */
    void fillVictim(uint64_t first, uint64_t word);

    /** Index of the way of the set at `first` holding `word`, or -1. */
    int64_t findWay(uint64_t first, uint64_t word) const;

    // Set/tag split avoids a hardware division per lookup when the
    // set count is a power of two (every Table 1 geometry is).
    uint64_t
    setIndex(Addr pa) const
    {
        return setsPow2_ ? (lineNumber(pa) & setMask_)
                         : lineNumber(pa) % numSets_;
    }

    uint64_t
    tagOf(Addr pa) const
    {
        return setsPow2_ ? (lineNumber(pa) >> setShift_)
                         : lineNumber(pa) / numSets_;
    }

    CacheParams params_;
    unsigned lineShift_;
    uint64_t numSets_;
    bool setsPow2_ = false;
    unsigned setShift_ = 0;
    uint64_t setMask_ = 0;
    std::vector<uint64_t> tags_;  //!< numSets_ x assoc tag words
    std::vector<uint64_t> stamps_; //!< LRU stamps, larger = more recent
    std::vector<uint8_t> locked_;  //!< pinned ways, never victims
    uint64_t lruClock_ = 0;
    uint64_t lockedLines_ = 0;

    Counter hits_;
    Counter misses_;
};

} // namespace hpmp

#endif // HPMP_MEM_CACHE_H
