/**
 * @file
 * Differential test of the cache tag store against a reference model.
 *
 * The reference is the straightforward array-of-lines model (one
 * record per way with tag, valid and an LRU stamp restamped on every
 * hit), kept here as the oracle. Random access / touch / probe /
 * flushLine / flushAll sequences over a small address pool must
 * produce the same hit/miss answers and the same victims (compared
 * as the full residency of the pool after every step). A second case
 * moves the cache's 32-bit LRU clock just below 2^32, so the store
 * renumbers its stamps mid-sequence, and must still agree with the
 * 64-bit reference.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "core/params.h"
#include "mem/cache.h"

namespace hpmp
{

/** Reads and moves the private tag-store state the tests pin. */
class CacheTestPeer
{
  public:
    static uint32_t clock(const Cache &c) { return c.lruClock_; }

    /** Move the clock forward; it must stay >= every stamp. */
    static void
    advanceClock(Cache &c, uint32_t clock)
    {
        ASSERT_GE(clock, c.lruClock_);
        c.lruClock_ = clock;
    }

    /** Host bytes of line state: the tag-store blocks. */
    static uint64_t
    lineStateBytes(const Cache &c)
    {
        return c.blocks_.capacity() * sizeof(uint32_t);
    }
};

namespace
{

/** Array-of-lines reference model of a tag-only LRU cache. */
class RefCache
{
  public:
    explicit RefCache(const CacheParams &params)
        : params_(params),
          numSets_(params.sizeBytes / params.lineBytes / params.assoc),
          lines_(numSets_ * params.assoc)
    {
    }

    bool
    access(Addr pa)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (base[way].valid && base[way].tag == tagOf(pa)) {
                base[way].lru = ++clock_;
                return true;
            }
        }
        fill(base, tagOf(pa));
        return false;
    }

    bool
    probe(Addr pa)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (base[way].valid && base[way].tag == tagOf(pa))
                return true;
        }
        return false;
    }

    void
    touch(Addr pa)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < params_.assoc; ++way) {
            if (base[way].valid && base[way].tag == tagOf(pa)) {
                base[way].lru = ++clock_;
                return;
            }
        }
        fill(base, tagOf(pa));
    }

    void
    flushAll()
    {
        for (Line &line : lines_)
            line = Line{};
    }

    void
    flushLine(Addr pa)
    {
        Line *base = set(pa);
        for (unsigned way = 0; way < params_.assoc; ++way) {
            Line &line = base[way];
            if (line.valid && line.tag == tagOf(pa))
                line = Line{};
        }
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    uint64_t lineOf(Addr pa) const { return pa / params_.lineBytes; }
    uint64_t tagOf(Addr pa) const { return lineOf(pa) / numSets_; }
    Line *
    set(Addr pa)
    {
        return &lines_[lineOf(pa) % numSets_ * params_.assoc];
    }

    /** The last invalid way, else the lowest-LRU way. */
    void
    fill(Line *base, uint64_t tag)
    {
        Line *victim = nullptr;
        for (unsigned way = 0; way < params_.assoc; ++way) {
            Line &line = base[way];
            if (!line.valid)
                victim = &line;
            else if (!victim || (victim->valid && line.lru < victim->lru))
                victim = &line;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lru = ++clock_;
    }

    CacheParams params_;
    uint64_t numSets_;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
};

struct Geometry
{
    unsigned sets;
    unsigned assoc;
};

class CacheDiff : public ::testing::TestWithParam<Geometry>
{
};

CacheParams
diffParams(const Geometry &g)
{
    return {"diff", uint64_t(g.sets) * g.assoc * 64, g.assoc, 64, 1};
}

/**
 * A pool of 3x assoc distinct lines per set: enough to force
 * evictions, small enough that lines come back.
 */
std::vector<Addr>
linePool(const Geometry &g)
{
    std::vector<Addr> pool;
    for (uint64_t i = 0; i < uint64_t(g.sets) * g.assoc * 3; ++i)
        pool.push_back(0x40000000 + i * 64);
    return pool;
}

/** One random operation on both models; any divergence fails. */
void
stepBoth(Cache &dut, RefCache &ref, Rng &rng, const std::vector<Addr> &pool)
{
    const Addr pa = pool[rng.below(pool.size())] +
                    rng.below(8) * 8; // any offset in the line
    const unsigned op = unsigned(rng.below(31));
    SCOPED_TRACE(::testing::Message() << "op " << op << " pa " << pa);
    if (op < 20) {
        ASSERT_EQ(dut.access(pa), ref.access(pa));
    } else if (op < 24) {
        dut.touch(pa);
        ref.touch(pa);
    } else if (op < 27) {
        ASSERT_EQ(dut.probe(pa), ref.probe(pa));
    } else if (op < 30) {
        dut.flushLine(pa);
        ref.flushLine(pa);
    } else if (rng.chance(0.25)) {
        dut.flushAll();
        ref.flushAll();
    }
    // Same victims: the whole pool's residency agrees.
    for (Addr line : pool)
        ASSERT_EQ(dut.probe(line), ref.probe(line)) << line;
}

TEST_P(CacheDiff, RandomSequencesMatchReference)
{
    const Geometry g = GetParam();
    const std::vector<Addr> pool = linePool(g);
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Cache dut(diffParams(g));
        RefCache ref(diffParams(g));
        Rng rng(seed);
        for (unsigned step = 0; step < 4000; ++step) {
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << " step " << step);
            ASSERT_NO_FATAL_FAILURE(stepBoth(dut, ref, rng, pool));
        }
    }
}

/**
 * The 32-bit clock wraps: it starts a few steps below 2^32 and, each
 * time a wrap has restarted it, is moved back there, so stamps are
 * renumbered over many different states (invalid ways, partly filled
 * sets). The 64-bit reference never wraps.
 */
TEST_P(CacheDiff, ClockWrapMatchesReference)
{
    const Geometry g = GetParam();
    const std::vector<Addr> pool = linePool(g);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Cache dut(diffParams(g));
        RefCache ref(diffParams(g));
        Rng rng(seed + 100);
        unsigned wraps = 0;
        for (unsigned step = 0; step < 12000; ++step) {
            const uint32_t before = CacheTestPeer::clock(dut);
            if (step % 400 == 0 && before < UINT32_MAX - 8) {
                ASSERT_NO_FATAL_FAILURE(CacheTestPeer::advanceClock(
                    dut, uint32_t(UINT32_MAX - rng.below(8))));
            }
            SCOPED_TRACE(::testing::Message() << "seed " << seed
                                              << " step " << step);
            ASSERT_NO_FATAL_FAILURE(stepBoth(dut, ref, rng, pool));
            wraps += CacheTestPeer::clock(dut) < before;
        }
        EXPECT_GE(wraps, 20u) << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDiff,
    ::testing::Values(Geometry{4, 4}, Geometry{8, 8}, Geometry{2, 2},
                      Geometry{1, 16}, Geometry{4, 3}),
    [](const ::testing::TestParamInfo<Geometry> &tp) {
        return std::to_string(tp.param.sets) + "sets_" +
               std::to_string(tp.param.assoc) + "way";
    });

TEST(CacheDeathTest, TagWiderThan31BitsPanics)
{
    const CacheParams params{"narrow", 4 * 2 * 64, 2, 64, 1}; // 4 sets
    Cache c(params);
    // pa = tag << 8 (6 line bits, 2 set bits): the widest tag fits.
    const Addr widest = ((Addr(1) << 31) - 1) << 8;
    EXPECT_FALSE(c.access(widest));
    EXPECT_TRUE(c.access(widest));
    EXPECT_DEATH(c.access(Addr(1) << 39), "wider than 31 bits");
    EXPECT_DEATH(c.probe(Addr(1) << 63), "wider than 31 bits");

    // The 64-set Table 1 L1s put 12 address bits below the tag, so
    // their ceiling is the lowest of the hierarchy: pa < 2^43.
    for (const MachineParams &mp : {rocketParams(), boomParams()}) {
        SCOPED_TRACE(mp.name);
        Cache l1(mp.hier.l1d);
        const Addr ceiling = Addr(1) << 43;
        EXPECT_FALSE(l1.access(ceiling - 64));
        EXPECT_TRUE(l1.access(ceiling - 64));
        EXPECT_DEATH(l1.access(ceiling), "wider than 31 bits");
    }
}

TEST(CacheTagStore, Table1L2AndLlcKeepEightHostBytesPerLine)
{
    for (const MachineParams &mp : {rocketParams(), boomParams()}) {
        for (const CacheParams &params : {mp.hier.l2, mp.hier.llc}) {
            SCOPED_TRACE(params.name);
            Cache c(params);
            const uint64_t lines = params.sizeBytes / params.lineBytes;
            EXPECT_EQ(CacheTestPeer::lineStateBytes(c), 8 * lines);
            // Traffic and flushes allocate no further line state.
            for (Addr pa = 0; pa < 64 * 1024; pa += 64)
                c.access(pa);
            c.flushLine(0);
            c.flushAll();
            EXPECT_EQ(CacheTestPeer::lineStateBytes(c), 8 * lines);
        }
    }
}

} // namespace
} // namespace hpmp
