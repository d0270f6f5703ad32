/**
 * @file
 * SlotAggregator correctness: the incremental aggregator must be a
 * bit-identical replacement for the batch
 * ProfileTemplate::build(DailyMed) on the same sample stream, under
 * any history shape (random, mid-week start, sub-day, empty) and
 * under window eviction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/profile_template.hh"
#include "core/slot_aggregator.hh"
#include "telemetry/time_series.hh"

using namespace soc;
using namespace soc::core;
using telemetry::TimeSeries;
using sim::kSlot;
using sim::kDay;
using sim::kWeek;

namespace
{

/** Random-walk history of @p slots samples starting at @p start. */
TimeSeries
randomHistory(std::uint64_t seed, sim::Tick start, int slots)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> step(-8.0, 8.0);
    TimeSeries s(start, kSlot);
    double level = 200.0;
    for (int i = 0; i < slots; ++i) {
        level += step(rng);
        s.append(level);
    }
    return s;
}

/** Feed @p history into a fresh aggregator sample by sample. */
SlotAggregator
aggregate(const TimeSeries &history, sim::Tick window = 0)
{
    SlotAggregator agg(window);
    for (std::size_t i = 0; i < history.size(); ++i)
        agg.add(history.timeOf(i), history.at(i));
    return agg;
}

void
expectMatchesBatch(const SlotAggregator &agg,
                   const TimeSeries &history)
{
    EXPECT_TRUE(agg.build() ==
                ProfileTemplate::build(TemplateStrategy::DailyMed,
                                       history))
        << history.size() << " samples from tick "
        << history.start();
}

} // namespace

TEST(SlotAggregator, EmptyMatchesBatch)
{
    const SlotAggregator agg;
    EXPECT_TRUE(agg.empty());
    expectMatchesBatch(agg, TimeSeries(0, kSlot));
}

TEST(SlotAggregator, SingleSampleMatchesBatch)
{
    const TimeSeries history(0, kSlot, {123.5});
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, SubDayHistoryLeavesBucketsEmpty)
{
    // Half a day of weekday samples: most weekday buckets and every
    // weekend bucket are empty, exercising both fallbacks.
    const auto history = randomHistory(11, 0, sim::kSlotsPerDay / 2);
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, WeekendOnlyHistory)
{
    // Tick 0 is Monday, so 5*kDay starts Saturday: weekday buckets
    // all empty, the weekend fallback chain must still match.
    const auto history =
        randomHistory(12, 5 * kDay, sim::kSlotsPerDay);
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, MidWeekStartCrossingWeekend)
{
    // Saturday start, 1.5 days: weekend samples then Monday
    // morning.
    const auto history =
        randomHistory(13, 5 * kDay + 7 * kSlot,
                      sim::kSlotsPerDay + sim::kSlotsPerDay / 2);
    expectMatchesBatch(aggregate(history), history);
}

TEST(SlotAggregator, RandomHistoriesBitIdenticalAtEveryPrefix)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto history =
            randomHistory(seed, 0, 2 * sim::kSlotsPerWeek + 3);
        SlotAggregator agg;
        TimeSeries prefix(0, kSlot);
        for (std::size_t i = 0; i < history.size(); ++i) {
            agg.add(history.timeOf(i), history.at(i));
            prefix.append(history.at(i));
            // Checking at every slot is O(weeks^2); a stride plus
            // the exact end keeps the test fast while
            // still crossing day and week boundaries mid-stream.
            if (i % 97 == 0 || i + 1 == history.size())
                expectMatchesBatch(agg, prefix);
        }
    }
}

TEST(SlotAggregator, IndexModeSwitchBitIdenticalAcrossThreshold)
{
    // Long unbounded histories flip the aggregator from the ring
    // representation to incremental index maintenance at
    // kIndexThreshold retained samples.  The switch must be
    // invisible: bit-identical templates right before, at, and well
    // after the crossing.
    const auto threshold =
        static_cast<int>(SlotAggregator::kIndexThreshold);
    const auto history = randomHistory(41, 0, threshold + 640);
    SlotAggregator agg;
    TimeSeries prefix(0, kSlot);
    for (std::size_t i = 0; i < history.size(); ++i) {
        agg.add(history.timeOf(i), history.at(i));
        prefix.append(history.at(i));
        const auto n = static_cast<int>(i) + 1;
        if (n == threshold - 1 || n == threshold ||
            n == threshold + 1 || n == threshold + 389 ||
            i + 1 == history.size())
            expectMatchesBatch(agg, prefix);
    }
}

TEST(SlotAggregator, IndexedWindowEvictionMatchesSlicedBatch)
{
    // A window wider than kIndexThreshold slots forces indexed-mode
    // *eviction* (bag erase), which the ring-mode eviction tests
    // never reach.
    const sim::Tick window = 4 * kWeek;
    const auto history =
        randomHistory(43, 0, 4 * sim::kSlotsPerWeek + 500);
    SlotAggregator agg(window);
    TimeSeries prefix(0, kSlot);
    for (std::size_t i = 0; i < history.size(); ++i) {
        agg.add(history.timeOf(i), history.at(i));
        prefix.append(history.at(i));
        if (i % 509 == 0 || i + 1 == history.size()) {
            const auto windowed =
                prefix.slice(prefix.end() - window, prefix.end());
            expectMatchesBatch(agg, windowed);
            EXPECT_EQ(agg.sampleCount(), windowed.size());
        }
    }
}

TEST(SlotAggregator, VersionAndCacheBehavior)
{
    const auto history = randomHistory(21, 0, 3 * sim::kSlotsPerDay);
    auto agg = aggregate(history);
    const auto v = agg.version();

    EXPECT_EQ(agg.rebuildCount(), 0u);
    (void)agg.build();
    EXPECT_EQ(agg.rebuildCount(), 1u);

    // No new samples: cached, no rebuild.
    (void)agg.build();
    (void)agg.build();
    EXPECT_EQ(agg.rebuildCount(), 1u);
    EXPECT_EQ(agg.version(), v);

    // A new sample bumps the version and invalidates the cache.
    agg.add(history.end(), 250.0);
    EXPECT_GT(agg.version(), v);
    (void)agg.build();
    (void)agg.build();
    EXPECT_EQ(agg.rebuildCount(), 2u);
}

TEST(SlotAggregator, WindowEvictionMatchesSlicedBatch)
{
    for (sim::Tick window : {kDay, kWeek}) {
        const auto history =
            randomHistory(31, 0, 3 * sim::kSlotsPerWeek);
        SlotAggregator agg(window);
        TimeSeries prefix(0, kSlot);
        for (std::size_t i = 0; i < history.size(); ++i) {
            agg.add(history.timeOf(i), history.at(i));
            prefix.append(history.at(i));
            if (i % 131 != 0 && i + 1 != history.size())
                continue;
            const auto windowed =
                prefix.slice(prefix.end() - window, prefix.end());
            expectMatchesBatch(agg, windowed);
            EXPECT_EQ(agg.sampleCount(), windowed.size());
        }
    }
}

TEST(SlotAggregator, ClearResetsToEmpty)
{
    auto agg = aggregate(randomHistory(41, 0, 100));
    (void)agg.build();
    agg.clear();
    EXPECT_TRUE(agg.empty());
    EXPECT_EQ(agg.sampleCount(), 0u);
    expectMatchesBatch(agg, TimeSeries(0, kSlot));
    // Refilling after clear behaves like a fresh aggregator.
    const auto history = randomHistory(42, 0, sim::kSlotsPerDay);
    for (std::size_t i = 0; i < history.size(); ++i)
        agg.add(history.timeOf(i), history.at(i));
    expectMatchesBatch(agg, history);
}

TEST(SlotAggregator, RejectsNonFiniteSamplesAtIngestion)
{
    // A NaN admitted into a SortedBag breaks the upper_bound /
    // lower_bound ordering invariant and silently corrupts medians;
    // the aggregator must refuse it up front and stay untouched.
    const auto history = randomHistory(77, 0, 64);
    auto agg = aggregate(history);
    const std::uint64_t version = agg.version();
    const sim::Tick next = history.end();

    const double bad[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::signaling_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (double v : bad)
        EXPECT_THROW(agg.add(next, v), std::invalid_argument);

    // No partial mutation: same version, same sample count, and
    // every template still matches the batch builder over the
    // samples that were actually accepted.
    EXPECT_EQ(agg.version(), version);
    EXPECT_EQ(agg.sampleCount(), history.size());
    expectMatchesBatch(agg, history);

    // The rejected tick was never recorded, so the slot is still
    // free for a finite retry.
    agg.add(next, 250.0);
    EXPECT_EQ(agg.sampleCount(), history.size() + 1);
}

TEST(SlotAggregator, RejectsNonContiguousTicks)
{
    // The ring holds values only and derives each tick from its
    // position, so anything but the next slot would re-key the
    // retained samples.  A gap, a repeat and a step back are all
    // refused, leaving the aggregator untouched.
    const auto history = randomHistory(78, 0, 64);
    auto agg = aggregate(history);
    const std::uint64_t version = agg.version();
    const sim::Tick last = history.end() - kSlot;

    const sim::Tick bad[] = {
        last + 2 * kSlot,       // one-slot gap
        last + 5 * kSlot,       // longer gap
        last + kSlot + 1,       // off the slot grid
        last,                   // repeated tick
        last - kSlot,           // backward by a slot
        history.start(),        // back to the first sample
    };
    for (sim::Tick t : bad)
        EXPECT_THROW(agg.add(t, 250.0), std::invalid_argument)
            << "tick " << t;

    EXPECT_EQ(agg.version(), version);
    EXPECT_EQ(agg.sampleCount(), history.size());
    expectMatchesBatch(agg, history);

    // The next slot is still accepted.
    agg.add(history.end(), 250.0);
    EXPECT_EQ(agg.sampleCount(), history.size() + 1);
}

TEST(SlotAggregator, ClearReanchorsAtAnyTick)
{
    // After clear() the ring starts over at whatever tick comes
    // next: earlier than the old stream (a crash-restart keys its
    // slots from 0 again), or later and off the day grid.
    for (sim::Tick start : {sim::Tick{0}, 5 * kDay + 7 * kSlot,
                            3 * kWeek + 1}) {
        auto agg = aggregate(randomHistory(79, kWeek, 300), kWeek);
        agg.clear();
        const auto history =
            randomHistory(80, start, sim::kSlotsPerDay + 11);
        for (std::size_t i = 0; i < history.size(); ++i)
            agg.add(history.timeOf(i), history.at(i));
        expectMatchesBatch(agg, history);
        EXPECT_EQ(agg.sampleCount(), history.size());
    }
}

namespace
{

/**
 * Feed @p values (one per slot from @p start) into an aggregator with
 * @p window, building after every add — and so after every eviction
 * the add triggers — and comparing each build with the batch builder
 * over exactly the retained samples.  @return the retained counts
 * seen, in order.
 */
std::vector<std::size_t>
expectEveryBuildMatchesBatch(sim::Tick start,
                             const std::vector<double> &values,
                             sim::Tick window)
{
    SlotAggregator agg(window);
    std::vector<std::size_t> counts;
    const std::size_t cap = window > 0
        ? static_cast<std::size_t>(window / kSlot)
        : values.size();
    for (std::size_t i = 0; i < values.size(); ++i) {
        const sim::Tick t = start + static_cast<sim::Tick>(i) * kSlot;
        agg.add(t, values[i]);
        const std::size_t kept = std::min(i + 1, cap);
        const std::size_t first = i + 1 - kept;
        const TimeSeries retained(
            start + static_cast<sim::Tick>(first) * kSlot, kSlot,
            std::vector<double>(
                values.begin() + static_cast<std::ptrdiff_t>(first),
                values.begin() + static_cast<std::ptrdiff_t>(i + 1)));
        EXPECT_EQ(agg.sampleCount(), kept);
        const bool same = agg.build() ==
            ProfileTemplate::build(TemplateStrategy::DailyMed,
                                   retained);
        EXPECT_TRUE(same) << kept << " samples from tick " << start
                          << ", window " << window;
        if (!same)
            break;
        counts.push_back(kept);
    }
    return counts;
}

/** @p n random-walk values, or (with @p ties) values drawn from
 *  {-2, -1, +0.0, -0.0, 1, 2} so buckets are full of equal
 *  elements, signed zeros among them. */
std::vector<double>
streamValues(std::uint64_t seed, std::size_t n, bool ties)
{
    if (!ties) {
        const auto walk = randomHistory(seed, 0, static_cast<int>(n));
        return walk.values();
    }
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> pick(0, 5);
    const double choices[] = {-2.0, -1.0, 0.0, -0.0, 1.0, 2.0};
    std::vector<double> out(n);
    for (double &v : out)
        v = choices[pick(rng)];
    return out;
}

} // namespace

TEST(SlotAggregator, StridedAssemblyMatchesBatchForEveryStart)
{
    // The ring assembly gathers each slot-of-day's samples with a
    // one-day stride from an index derived from the first tick, and
    // steps the weekday with a counter: every start day, a start at
    // either end of the day and one off the 5-minute grid must key
    // every sample exactly as the batch builder does, after every
    // add (1, 287, 288, 289, 2,016 and 2,017 among them) and across
    // the 1-week window's evictions.  The unbounded case, which
    // retains 2,017 samples and more, is
    // IndexedRebuildOfTouchedBucketsMatchesBatch.
    const auto week_slots =
        static_cast<std::size_t>(sim::kSlotsPerWeek);
    const std::size_t n = week_slots + 40;
    std::uint64_t seed = 100;
    for (int start_day = 0; start_day < 7; ++start_day) {
        const sim::Tick midnight = start_day * kDay;
        for (const sim::Tick start :
             {midnight, midnight + 287 * kSlot,
              midnight + 141 * kSlot + 97 * sim::kSecond}) {
            const bool ties = start_day % 2 == 1;
            const auto values = streamValues(++seed, n, ties);
            const auto counts =
                expectEveryBuildMatchesBatch(start, values, kWeek);
            ASSERT_EQ(counts.size(), n);
            // After c adds the window keeps c samples, or one week's
            // worth once the 2,017th add evicts the first.
            for (const std::size_t c :
                 {std::size_t{1}, std::size_t{287}, std::size_t{288},
                  std::size_t{289}, week_slots, week_slots + 1}) {
                EXPECT_EQ(counts[c - 1], std::min(c, week_slots)) << c;
            }
            EXPECT_EQ(counts.back(), week_slots);
        }
    }
}

TEST(SlotAggregator, IndexedRebuildOfTouchedBucketsMatchesBatch)
{
    // Unbounded retention crossing kIndexThreshold (Thursday,
    // off-grid start), with signed-zero ties: every build after the
    // switch rewrites only the buckets the adds touched.
    const auto threshold = SlotAggregator::kIndexThreshold;
    const sim::Tick start = 3 * kDay + 200 * kSlot + 11;
    const auto values = streamValues(7, threshold + 300, true);
    const auto counts = expectEveryBuildMatchesBatch(start, values, 0);
    EXPECT_EQ(counts.size(), values.size());

    // A window past kIndexThreshold evicts in indexed mode: build
    // after every add past the first eviction, and once after a long
    // unbuilt run so touched marks accumulate across many adds and
    // evictions.  The window is not a whole number of days, so each
    // eviction leaves a different bucket than its add enters.
    const sim::Tick window = 4 * kWeek + kDay + 7 * kSlot;
    const auto cap = static_cast<std::size_t>(window / kSlot);
    const auto stream = streamValues(8, cap + 700, false);
    SlotAggregator agg(window);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const sim::Tick t = start + static_cast<sim::Tick>(i) * kSlot;
        agg.add(t, stream[i]);
        if (i + 1 < cap - 5 || (i > cap + 300 && i + 1 < stream.size()))
            continue;
        const std::size_t kept = std::min(i + 1, cap);
        const std::size_t first = i + 1 - kept;
        const TimeSeries retained(
            start + static_cast<sim::Tick>(first) * kSlot, kSlot,
            std::vector<double>(
                stream.begin() + static_cast<std::ptrdiff_t>(first),
                stream.begin() + static_cast<std::ptrdiff_t>(i + 1)));
        ASSERT_TRUE(agg.build() ==
                    ProfileTemplate::build(TemplateStrategy::DailyMed,
                                           retained))
            << i;
    }
}

TEST(ProfileTemplateEquality, DetectsEveryFieldDifference)
{
    const auto history = randomHistory(51, 0, sim::kSlotsPerDay * 9);
    for (auto strategy :
         {TemplateStrategy::FlatMed, TemplateStrategy::FlatMax,
          TemplateStrategy::Weekly, TemplateStrategy::DailyMed,
          TemplateStrategy::DailyMax}) {
        const auto a = ProfileTemplate::build(strategy, history);
        const auto b = ProfileTemplate::build(strategy, history);
        EXPECT_TRUE(a == b);
    }
    const auto med =
        ProfileTemplate::build(TemplateStrategy::FlatMed, history);
    const auto max =
        ProfileTemplate::build(TemplateStrategy::FlatMax, history);
    EXPECT_TRUE(med != max);
    EXPECT_TRUE(ProfileTemplate::flat(1.0) !=
                ProfileTemplate::flat(2.0));
}
