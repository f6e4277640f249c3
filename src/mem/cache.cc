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
    const uint64_t num_sets = num_lines / params.assoc;
    fatal_if(num_sets == 0, "%s: %lu bytes hold no set of %u %u-byte lines",
             params.name.c_str(), (unsigned long)params.sizeBytes,
             params.assoc, params.lineBytes);
    fatal_if(!isPowerOf2(num_sets), "%s: %lu sets is not a power of two",
             params.name.c_str(), (unsigned long)num_sets);
    setShift_ = log2i(num_sets);
    setMask_ = num_sets - 1;
    blockWords_ = 2 * params.assoc;
    blocks_.assign(num_sets * blockWords_, 0);
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
    for (uint64_t set = 0; set <= setMask_; ++set) {
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
    const uint32_t *stamps = block(set) + assoc;
    // Invalid ways hold stamp 0 and valid ways distinct stamps >= 1
    // (see restamp()), so the lowest stamp, ties going to the later
    // way, is the last invalid way if any, else the least recently
    // used one. This scan has no data-dependent branch, which is
    // measurably faster on miss-heavy workloads (EXPERIMENTS.md), and
    // it keeps the oldest stamp in a register rather than reloading it
    // through the victim index.
    unsigned victim = 0;
    uint32_t oldest = stamps[0];
    for (unsigned way = 1; way < assoc; ++way) {
        const bool older = stamps[way] <= oldest;
        victim = older ? way : victim;
        oldest = older ? stamps[way] : oldest;
    }
    return victim;
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

void
Cache::flushAll()
{
    std::fill(blocks_.begin(), blocks_.end(), 0);
}

void
Cache::flushLine(Addr pa)
{
    const uint64_t set = setIndex(pa);
    const int way = findWay(set, tagWord(pa));
    if (way >= 0) {
        uint32_t *tags = block(set);
        tags[way] = 0;
        tags[params_.assoc + way] = 0;
    }
}

} // namespace hpmp
