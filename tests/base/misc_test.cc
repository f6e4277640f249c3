/**
 * @file
 * Tests for the RNG, stats registry, access vocabulary and number
 * parser.
 */

#include <gtest/gtest.h>

#include "base/access.h"
#include "base/parse.h"
#include "base/rng.h"
#include "base/stats.h"

namespace hpmp
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c.next();
    }
    EXPECT_NE(Rng(7).next(), Rng(8).next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Stats, CounterAndGroup)
{
    Counter a, b;
    StatGroup group("test");
    group.add("alpha", &a);
    group.add("beta", &b);

    ++a;
    a += 4;
    ++b;
    EXPECT_EQ(group.get("alpha"), 5u);
    EXPECT_EQ(group.get("beta"), 1u);
    EXPECT_EQ(group.get("nope"), 0u);

    const std::string dump = group.dump();
    EXPECT_NE(dump.find("test.alpha 5"), std::string::npos);

    group.resetAll();
    EXPECT_EQ(group.get("alpha"), 0u);
}

TEST(Access, PermAllows)
{
    EXPECT_TRUE(Perm::rw().allows(AccessType::Load));
    EXPECT_TRUE(Perm::rw().allows(AccessType::Store));
    EXPECT_FALSE(Perm::rw().allows(AccessType::Fetch));
    EXPECT_TRUE(Perm::rx().allows(AccessType::Fetch));
    EXPECT_FALSE(Perm::none().any());
}

TEST(Access, FaultMapping)
{
    EXPECT_EQ(pageFaultFor(AccessType::Store), Fault::StorePageFault);
    EXPECT_EQ(accessFaultFor(AccessType::Fetch), Fault::FetchAccessFault);
    EXPECT_EQ(guestPageFaultFor(AccessType::Load),
              Fault::GuestLoadPageFault);
    EXPECT_STREQ(toString(Fault::LoadAccessFault), "load-access-fault");
    EXPECT_STREQ(toString(AccessType::Fetch), "fetch");
}

TEST(Parse, WholeUnsignedNumbersOnly)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseUnsigned("0x10", v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", v));
    for (const char *junk : {"", "abc", "12x", "-1", " 1", "+1",
                             "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(junk, v)) << junk;
}

} // namespace
} // namespace hpmp
