#include "mem/cache.h"

#include "base/bitfield.h"
#include "base/logging.h"

namespace hpmp
{

Cache::Cache(const CacheParams &params)
    : params_(params),
      lineShift_(log2i(params.lineBytes))
{
    fatal_if(!isPowerOf2(params.lineBytes), "%s: line size must be 2^n",
             params.name.c_str());
    fatal_if(params.assoc == 0, "%s: zero associativity",
             params.name.c_str());
    const uint64_t num_lines = params.sizeBytes / params.lineBytes;
    fatal_if(num_lines % params.assoc != 0,
             "%s: size/assoc mismatch", params.name.c_str());
    numSets_ = num_lines / params.assoc;
    fatal_if(numSets_ == 0, "%s: %lu bytes hold no set of %u %u-byte lines",
             params.name.c_str(), (unsigned long)params.sizeBytes,
             params.assoc, params.lineBytes);
    if (isPowerOf2(numSets_)) {
        setsPow2_ = true;
        setShift_ = log2i(numSets_);
        setMask_ = numSets_ - 1;
    }
    tags_.assign(num_lines, 0);
    stamps_.assign(num_lines, 0);
    locked_.assign(num_lines, 0);
}

uint64_t
Cache::victimOf(uint64_t first) const
{
    const uint64_t end = first + params_.assoc;
    if (lockedLines_ == 0) {
        // Invalid ways hold stamp 0 and valid ways distinct stamps >= 1
        // (see stamp()), so the lowest stamp, ties going to the later
        // way, is the rule below read off the stamps alone. This scan
        // has no data-dependent branch, which is measurably faster on
        // miss-heavy workloads (EXPERIMENTS.md).
        uint64_t victim = first;
        for (uint64_t i = first + 1; i < end; ++i) {
            if (stamps_[i] <= stamps_[victim])
                victim = i;
        }
        return victim;
    }

    // Same victim choice as the historical single-pass scan: the last
    // invalid unlocked way if any, else the lowest-stamp unlocked way.
    int64_t victim = -1;
    bool victim_valid = false;
    for (uint64_t i = first; i < end; ++i) {
        if (locked_[i])
            continue;
        if (!validWord(tags_[i])) {
            victim = int64_t(i);
            victim_valid = false;
        } else if (victim < 0 ||
                   (victim_valid && stamps_[i] < stamps_[victim])) {
            victim = int64_t(i);
            victim_valid = true;
        }
    }
    panic_if(victim < 0, "all ways locked in set");
    return uint64_t(victim);
}

void
Cache::fillVictim(uint64_t first, uint64_t word)
{
    const uint64_t victim = victimOf(first);
    tags_[victim] = word;
    stamps_[victim] = ++lruClock_;
}

int64_t
Cache::findWay(uint64_t first, uint64_t word) const
{
    for (uint64_t i = first; i < first + params_.assoc; ++i) {
        if (tags_[i] == word)
            return int64_t(i);
    }
    return -1;
}

bool
Cache::probe(Addr pa) const
{
    return findWay(setIndex(pa) * params_.assoc, tagWord(tagOf(pa))) >= 0;
}

void
Cache::touch(Addr pa)
{
    const uint64_t first = setIndex(pa) * params_.assoc;
    const uint64_t word = tagWord(tagOf(pa));
    const int64_t way = findWay(first, word);
    if (way >= 0)
        stamp(uint64_t(way));
    else
        fillVictim(first, word);
}

bool
Cache::lockLine(Addr pa)
{
    const uint64_t first = setIndex(pa) * params_.assoc;

    unsigned unlocked = 0;
    for (uint64_t i = first; i < first + params_.assoc; ++i) {
        if (!locked_[i])
            ++unlocked;
    }
    if (unlocked <= 1)
        return false; // keep at least one evictable way per set

    // Bring the line in (warm) and pin it.
    touch(pa);
    const int64_t way = findWay(first, tagWord(tagOf(pa)));
    if (way < 0 || locked_[way])
        return false;
    locked_[way] = 1;
    ++lockedLines_;
    return true;
}

void
Cache::unlockLine(Addr pa)
{
    const int64_t way =
        findWay(setIndex(pa) * params_.assoc, tagWord(tagOf(pa)));
    if (way >= 0 && locked_[way]) {
        locked_[way] = 0;
        --lockedLines_;
    }
}

void
Cache::flushAll()
{
    // Locked lines survive flushes (the monitor's pinned state);
    // everything else goes.
    for (uint64_t i = 0; i < tags_.size(); ++i) {
        if (!locked_[i]) {
            tags_[i] = 0;
            stamps_[i] = 0;
        }
    }
}

void
Cache::flushLine(Addr pa)
{
    const int64_t way =
        findWay(setIndex(pa) * params_.assoc, tagWord(tagOf(pa)));
    if (way >= 0 && !locked_[way]) {
        tags_[way] = 0;
        stamps_[way] = 0;
    }
}

} // namespace hpmp
