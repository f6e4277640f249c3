#include "mem/cache.h"

#include <algorithm>

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
    blockWords_ = 2 * params.assoc;
    blocks_.assign(numSets_ * blockWords_, 0);
}

void
Cache::tagTooWide(Addr pa) const
{
    panic("%s: tag of pa %#lx is wider than 31 bits",
          params_.name.c_str(), (unsigned long)pa);
}

void
Cache::renumberStamps()
{
    const unsigned assoc = params_.assoc;
    std::vector<uint32_t> old(assoc);
    for (uint64_t set = 0; set < numSets_; ++set) {
        uint32_t *stamps = block(set) + assoc;
        std::copy(stamps, stamps + assoc, old.begin());
        for (unsigned way = 0; way < assoc; ++way) {
            if (old[way] == 0)
                continue;
            uint32_t rank = 1;
            for (const uint32_t other : old)
                rank += other != 0 && other < old[way];
            stamps[way] = rank;
        }
    }
    lruClock_ = assoc;
}

unsigned
Cache::victimOf(uint64_t set) const
{
    const unsigned assoc = params_.assoc;
    const uint32_t *tags = block(set);
    const uint32_t *stamps = tags + assoc;
    if (lockedLines_ == 0) {
        // Invalid ways hold stamp 0 and valid ways distinct stamps >= 1
        // (see restamp()), so the lowest stamp, ties going to the later
        // way, is the rule below read off the stamps alone. This scan
        // has no data-dependent branch, which is measurably faster on
        // miss-heavy workloads (EXPERIMENTS.md), and it keeps the
        // oldest stamp in a register rather than reloading it through
        // the victim index.
        unsigned victim = 0;
        uint32_t oldest = stamps[0];
        for (unsigned way = 1; way < assoc; ++way) {
            const bool older = stamps[way] <= oldest;
            victim = older ? way : victim;
            oldest = older ? stamps[way] : oldest;
        }
        return victim;
    }

    // Same victim choice as the historical single-pass scan: the last
    // invalid unlocked way if any, else the lowest-stamp unlocked way.
    int victim = -1;
    bool victim_valid = false;
    for (unsigned way = 0; way < assoc; ++way) {
        if (isLocked(set, way))
            continue;
        if (tags[way] == 0) {
            victim = int(way);
            victim_valid = false;
        } else if (victim < 0 ||
                   (victim_valid && stamps[way] < stamps[victim])) {
            victim = int(way);
            victim_valid = true;
        }
    }
    panic_if(victim < 0, "all ways locked in set");
    return unsigned(victim);
}

void
Cache::fillVictim(uint64_t set, uint32_t word)
{
    const uint32_t stamp = nextStamp();
    const unsigned victim = victimOf(set);
    uint32_t *tags = block(set);
    tags[victim] = word;
    tags[params_.assoc + victim] = stamp;
}

int
Cache::findWay(uint64_t set, uint32_t word) const
{
    const uint32_t *tags = block(set);
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (tags[way] == word)
            return int(way);
    }
    return -1;
}

bool
Cache::probe(Addr pa) const
{
    return findWay(setIndex(pa), tagWord(pa)) >= 0;
}

void
Cache::touch(Addr pa)
{
    const uint64_t set = setIndex(pa);
    const uint32_t word = tagWord(pa);
    const int way = findWay(set, word);
    if (way >= 0)
        restamp(block(set) + params_.assoc, unsigned(way));
    else
        fillVictim(set, word);
}

bool
Cache::lockLine(Addr pa)
{
    const uint64_t set = setIndex(pa);
    if (locked_.empty())
        locked_.assign(numSets_ * params_.assoc, 0);

    unsigned unlocked = 0;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (!isLocked(set, way))
            ++unlocked;
    }
    if (unlocked <= 1)
        return false; // keep at least one evictable way per set

    // Bring the line in (warm) and pin it.
    touch(pa);
    const int way = findWay(set, tagWord(pa));
    if (way < 0 || isLocked(set, unsigned(way)))
        return false;
    locked_[set * params_.assoc + unsigned(way)] = 1;
    ++lockedLines_;
    return true;
}

void
Cache::unlockLine(Addr pa)
{
    const uint64_t set = setIndex(pa);
    const int way = findWay(set, tagWord(pa));
    if (way >= 0 && isLocked(set, unsigned(way))) {
        locked_[set * params_.assoc + unsigned(way)] = 0;
        --lockedLines_;
    }
}

void
Cache::flushAll()
{
    // Locked lines survive flushes (the monitor's pinned state);
    // everything else goes.
    const unsigned assoc = params_.assoc;
    for (uint64_t set = 0; set < numSets_; ++set) {
        uint32_t *tags = block(set);
        for (unsigned way = 0; way < assoc; ++way) {
            if (!isLocked(set, way)) {
                tags[way] = 0;
                tags[assoc + way] = 0;
            }
        }
    }
}

void
Cache::flushLine(Addr pa)
{
    const uint64_t set = setIndex(pa);
    const int way = findWay(set, tagWord(pa));
    if (way >= 0 && !isLocked(set, unsigned(way))) {
        uint32_t *tags = block(set);
        tags[way] = 0;
        tags[params_.assoc + way] = 0;
    }
}

} // namespace hpmp
