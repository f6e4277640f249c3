/**
 * @file
 * IntervalSet tests: coalescing, splitting, overlap queries, and
 * randomized properties against a page-granular bitmap and against a
 * std::map model of the maximal runs (order statistics, last fit,
 * every shape of a single-search update).
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

/** The set's intervals in address order, read through nth(). */
std::map<Addr, uint64_t>
listOf(const IntervalSet &s)
{
    std::map<Addr, uint64_t> list;
    for (size_t k = 0; k < s.intervalCount(); ++k)
        list.insert(s.nth(k));
    return list;
}

/**
 * Randomized mix aimed at each shape of a single-search update:
 * erases at an interval's start, middle, end and whole, eraseInNth,
 * inserts that grow the predecessor, the successor, both or neither,
 * and failing inserts and erases. After every operation nth() over
 * the whole set is the model's run list; a failed one leaves the list
 * as it was.
 */
TEST(IntervalSetProperty, SingleSearchUpdatesMatchModel)
{
    constexpr uint64_t kPages = 512;
    enum Shape
    {
        EraseStart, EraseMiddle, EraseEnd, EraseWhole, EraseNth,
        EraseFails, JoinPrev, JoinNext, JoinBoth, InsertAlone,
        InsertFails, kShapes
    };
    unsigned hits[kShapes] = {};
    IntervalSet s;
    std::set<uint64_t> pages;
    Rng rng(0x5ca7);

    for (int step = 0; step < 4000; ++step) {
        const std::map<Addr, uint64_t> before = runsOf(pages);
        // A run of the model, as (first page, page count).
        auto someRun = [&] {
            const auto it =
                std::next(before.begin(), rng.below(before.size()));
            return std::pair{it->first / kPageSize, it->second / kPageSize};
        };
        const unsigned op = rng.below(3);
        uint64_t page = rng.below(kPages);
        uint64_t len = 1 + rng.below(8);

        if (op == 2 && !before.empty()) {
            const size_t k = rng.below(before.size());
            const auto [run_base, run_size] = *std::next(before.begin(), k);
            uint64_t seen = 0;
            uint64_t offset = 0;
            const Addr got = s.eraseInNth(k, kPageSize, [&](uint64_t size) {
                seen = size;
                offset = pageAddr(rng.below(size / kPageSize));
                return offset;
            });
            ASSERT_EQ(seen, run_size) << "step " << step;
            ASSERT_EQ(got, run_base + offset) << "step " << step;
            pages.erase(got / kPageSize);
            ++hits[EraseNth];
        } else if (op == 1) {
            if (!before.empty() && rng.chance(0.8)) {
                // Inside one run, or one page past its end.
                const auto [first, n] = someRun();
                const uint64_t off = rng.below(n);
                page = first + off;
                len = 1 + rng.below(n - off + 1);
            }
            bool all_set = true;
            for (uint64_t p = page; p < page + len; ++p)
                all_set &= pages.count(p) != 0;
            ASSERT_EQ(s.erase(pageAddr(page), pageAddr(len)), all_set)
                << "erase step " << step;
            if (all_set) {
                const bool at_start = page == 0 || !pages.count(page - 1);
                const bool at_end = !pages.count(page + len);
                ++hits[at_start ? (at_end ? EraseWhole : EraseStart)
                                : (at_end ? EraseEnd : EraseMiddle)];
                for (uint64_t p = page; p < page + len; ++p)
                    pages.erase(p);
            } else {
                ++hits[EraseFails];
            }
        } else {
            if (before.size() > 1 && rng.chance(0.7)) {
                // Inside the gap after a run (or one page into the next
                // run), touching neither, one or both neighbours.
                const auto [first, n] = someRun();
                const uint64_t gap_base = first + n;
                uint64_t gap = 0;
                while (gap_base + gap < kPages && !pages.count(gap_base + gap))
                    ++gap;
                const uint64_t off = rng.chance(0.5) ? 0 : rng.below(gap);
                page = gap_base + off;
                len = 1 + rng.below(gap - off + 1);
            }
            bool all_free = true;
            for (uint64_t p = page; p < page + len; ++p)
                all_free &= !pages.count(p);
            ASSERT_EQ(s.insert(pageAddr(page), pageAddr(len)), all_free)
                << "insert step " << step;
            if (all_free) {
                const bool prev = page > 0 && pages.count(page - 1);
                const bool next = pages.count(page + len) != 0;
                ++hits[prev ? (next ? JoinBoth : JoinPrev)
                            : (next ? JoinNext : InsertAlone)];
                for (uint64_t p = page; p < page + len; ++p)
                    pages.insert(p);
            } else {
                ++hits[InsertFails];
            }
        }

        const std::map<Addr, uint64_t> after = listOf(s);
        ASSERT_EQ(after, runsOf(pages)) << "step " << step;
        ASSERT_EQ(s.intervalCount(), after.size()) << "step " << step;
        ASSERT_EQ(s.totalBytes(), pages.size() * kPageSize);
    }
    for (unsigned shape = 0; shape < kShapes; ++shape)
        EXPECT_GT(hits[shape], 0u) << "shape " << shape << " never ran";
}

} // namespace
} // namespace hpmp
