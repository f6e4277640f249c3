/**
 * @file
 * IntervalSet tests: coalescing, splitting, overlap queries, and
 * randomized properties against a page-granular bitmap and against a
 * std::map model of the maximal runs (order statistics, last fit).
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "base/interval_set.h"
#include "base/rng.h"

namespace hpmp
{
namespace
{

TEST(IntervalSet, InsertCoalesces)
{
    IntervalSet s;
    EXPECT_TRUE(s.insert(0x1000, 0x1000));
    EXPECT_TRUE(s.insert(0x2000, 0x1000));
    EXPECT_EQ(s.intervalCount(), 1u);
    EXPECT_TRUE(s.contains(0x1000, 0x2000));
    EXPECT_TRUE(s.insert(0x0, 0x1000));
    EXPECT_EQ(s.intervalCount(), 1u);
}

TEST(IntervalSet, InsertRejectsOverlap)
{
    IntervalSet s;
    EXPECT_TRUE(s.insert(0x1000, 0x2000));
    EXPECT_FALSE(s.insert(0x2000, 0x1000));
    EXPECT_FALSE(s.insert(0x0, 0x1001));
}

TEST(IntervalSet, EraseSplits)
{
    IntervalSet s;
    ASSERT_TRUE(s.insert(0x0, 0x10000));
    EXPECT_TRUE(s.erase(0x4000, 0x1000));
    EXPECT_EQ(s.intervalCount(), 2u);
    EXPECT_FALSE(s.contains(0x4000, 0x1000));
    EXPECT_TRUE(s.contains(0x0, 0x4000));
    EXPECT_TRUE(s.contains(0x5000, 0xb000));
}

TEST(IntervalSet, EraseRequiresFullCoverage)
{
    IntervalSet s;
    ASSERT_TRUE(s.insert(0x1000, 0x1000));
    EXPECT_FALSE(s.erase(0x800, 0x1000));
    EXPECT_FALSE(s.erase(0x1800, 0x1000));
}

TEST(IntervalSet, FindFitRespectsAlignment)
{
    IntervalSet s;
    ASSERT_TRUE(s.insert(0x1800, 0x10000));
    const auto fit = s.findFit(0x4000, 0x4000);
    ASSERT_TRUE(fit.has_value());
    EXPECT_EQ(*fit % 0x4000, 0u);
    EXPECT_GE(*fit, 0x1800u);
}

TEST(IntervalSet, TotalBytes)
{
    IntervalSet s;
    s.insert(0, 0x3000);
    s.insert(0x10000, 0x1000);
    EXPECT_EQ(s.totalBytes(), 0x4000u);
}

/** Randomized: the set must agree with a page bitmap oracle. */
TEST(IntervalSetProperty, MatchesBitmapOracle)
{
    constexpr uint64_t kPages = 256;
    IntervalSet s;
    std::set<uint64_t> oracle; // pages present
    Rng rng(42);

    for (int step = 0; step < 2000; ++step) {
        const uint64_t page = rng.below(kPages);
        const uint64_t len = 1 + rng.below(8);
        const Addr base = page * kPageSize;
        const uint64_t bytes = len * kPageSize;

        bool oracle_free = true;
        bool oracle_full = true;
        for (uint64_t p = page; p < page + len; ++p) {
            if (oracle.count(p))
                oracle_free = false;
            else
                oracle_full = false;
        }

        if (rng.chance(0.5)) {
            const bool ok = s.insert(base, bytes);
            EXPECT_EQ(ok, oracle_free) << "insert step " << step;
            if (ok) {
                for (uint64_t p = page; p < page + len; ++p)
                    oracle.insert(p);
            }
        } else {
            const bool ok = s.erase(base, bytes);
            EXPECT_EQ(ok, oracle_full) << "erase step " << step;
            if (ok) {
                for (uint64_t p = page; p < page + len; ++p)
                    oracle.erase(p);
            }
        }
        EXPECT_EQ(s.totalBytes(), oracle.size() * kPageSize);
    }
}

/** Maximal runs of consecutive pages as base -> size, in bytes. */
std::map<Addr, uint64_t>
runsOf(const std::set<uint64_t> &pages)
{
    std::map<Addr, uint64_t> runs;
    for (auto it = pages.begin(); it != pages.end();) {
        const uint64_t first = *it;
        uint64_t last = first;
        while (++it != pages.end() && *it == last + 1)
            last = *it;
        runs[first * kPageSize] = (last - first + 1) * kPageSize;
    }
    return runs;
}

/**
 * Randomized differential test: after every insert/erase, nth(k) is
 * the k-th run of the model for every k, and the counts, byte totals
 * and last-fit answers agree (coalescing included).
 */
TEST(IntervalSetProperty, NthMatchesMapModel)
{
    constexpr uint64_t kPages = 1024;
    IntervalSet s;
    std::set<uint64_t> pages;
    Rng rng(0x1e7);

    for (int step = 0; step < 3000; ++step) {
        const uint64_t page = rng.below(kPages);
        const uint64_t len = 1 + rng.below(rng.chance(0.2) ? 64 : 4);
        bool all_free = true;
        bool all_set = true;
        for (uint64_t p = page; p < page + len; ++p) {
            all_free &= !pages.count(p);
            all_set &= pages.count(p) != 0;
        }
        // Bias towards inserts so the set grows to a few hundred runs.
        if (rng.chance(0.6)) {
            ASSERT_EQ(s.insert(pageAddr(page), pageAddr(len)), all_free)
                << "insert step " << step;
            if (all_free) {
                for (uint64_t p = page; p < page + len; ++p)
                    pages.insert(p);
            }
        } else {
            ASSERT_EQ(s.erase(pageAddr(page), pageAddr(len)), all_set)
                << "erase step " << step;
            if (all_set) {
                for (uint64_t p = page; p < page + len; ++p)
                    pages.erase(p);
            }
        }

        const std::map<Addr, uint64_t> model = runsOf(pages);
        ASSERT_EQ(s.intervalCount(), model.size()) << "step " << step;
        ASSERT_EQ(s.totalBytes(), pages.size() * kPageSize);
        size_t k = 0;
        for (const auto &[base, size] : model) {
            const auto [nth_base, nth_size] = s.nth(k);
            ASSERT_EQ(nth_base, base) << "step " << step << " k " << k;
            ASSERT_EQ(nth_size, size) << "step " << step << " k " << k;
            ++k;
        }

        const uint64_t want = pageAddr(1 + rng.below(8));
        std::optional<Addr> last_fit;
        for (auto it = model.rbegin(); it != model.rend(); ++it) {
            if (it->second >= want) {
                last_fit = it->first + it->second - want;
                break;
            }
        }
        ASSERT_EQ(s.findLastFit(want), last_fit) << "step " << step;
    }
}

} // namespace
} // namespace hpmp
