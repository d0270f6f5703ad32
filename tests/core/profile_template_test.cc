/** @file Unit and property tests for profile templates (Fig. 15). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/profile_template.hh"
#include "workload/trace_generator.hh"

using namespace soc;
using namespace soc::core;
using telemetry::TimeSeries;
using sim::kSlot;
using sim::kDay;
using sim::kWeek;

namespace
{

/** Two weeks of telemetry: weekdays at `hi` 9am-5pm else `lo`;
 *  weekends flat at `weekend`. */
TimeSeries
syntheticHistory(double lo, double hi, double weekend)
{
    TimeSeries s(0, kSlot);
    for (sim::Tick t = 0; t < 2 * kWeek; t += kSlot) {
        if (sim::isWeekend(t)) {
            s.append(weekend);
        } else {
            const double h = sim::hourOfDay(t);
            s.append(h >= 9.0 && h < 17.0 ? hi : lo);
        }
    }
    return s;
}

} // namespace

TEST(ProfileTemplate, FlatMedPredictsMedian)
{
    TimeSeries s(0, kSlot, {1.0, 2.0, 3.0, 4.0, 100.0});
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::FlatMed, s);
    EXPECT_EQ(tmpl.predict(0), 3.0);
    EXPECT_EQ(tmpl.predict(5 * kWeek), 3.0);
}

TEST(ProfileTemplate, FlatMaxPredictsMax)
{
    TimeSeries s(0, kSlot, {1.0, 2.0, 100.0, 4.0});
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::FlatMax, s);
    EXPECT_EQ(tmpl.predict(12345678), 100.0);
}

TEST(ProfileTemplate, DailyMedCapturesTimeOfDayStructure)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    // Weekday predictions in week 3 (outside history).
    const sim::Tick monday = 2 * kWeek;
    EXPECT_NEAR(tmpl.predict(monday + 12 * sim::kHour), 300.0, 1e-9);
    EXPECT_NEAR(tmpl.predict(monday + 3 * sim::kHour), 100.0, 1e-9);
    // Weekend predictions use the weekend template.
    EXPECT_NEAR(tmpl.predict(monday + 5 * kDay + 12 * sim::kHour),
                50.0, 1e-9);
}

TEST(ProfileTemplate, DailyMedRobustToSingleOutlierDay)
{
    auto history = syntheticHistory(100.0, 300.0, 50.0);
    // Corrupt one whole weekday (say Wednesday of week 1) with a
    // holiday-like collapse.
    for (sim::Tick t = 2 * kDay; t < 3 * kDay; t += kSlot)
        history.set(history.indexOf(t), 10.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    // Median across 10 weekdays ignores the single bad day.
    EXPECT_NEAR(tmpl.predict(2 * kWeek + 12 * sim::kHour), 300.0,
                1e-9);
}

TEST(ProfileTemplate, DailyMaxIsConservative)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto med = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    const auto max = ProfileTemplate::build(
        TemplateStrategy::DailyMax, history);
    for (sim::Tick t = 0; t < kDay; t += sim::kHour) {
        EXPECT_GE(max.predict(t), med.predict(t));
    }
}

TEST(ProfileTemplate, WeeklyReplaysLastWeek)
{
    TimeSeries history(0, kSlot);
    // Week 1: constant 100.  Week 2: constant 200.
    for (sim::Tick t = 0; t < kWeek; t += kSlot)
        history.append(100.0);
    for (sim::Tick t = 0; t < kWeek; t += kSlot)
        history.append(200.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::Weekly, history);
    // The most recent week's value wins for every slot.
    EXPECT_EQ(tmpl.predict(2 * kWeek + 3 * kDay), 200.0);
}

TEST(ProfileTemplate, EmptyHistoryPredictsZero)
{
    TimeSeries empty(0, kSlot);
    for (auto strategy :
         {TemplateStrategy::FlatMed, TemplateStrategy::FlatMax,
          TemplateStrategy::Weekly, TemplateStrategy::DailyMed,
          TemplateStrategy::DailyMax}) {
        const auto tmpl = ProfileTemplate::build(strategy, empty);
        EXPECT_EQ(tmpl.predict(kDay), 0.0);
    }
}

TEST(ProfileTemplate, FlatAndFromWeeklyConstructors)
{
    const auto flat = ProfileTemplate::flat(42.0);
    EXPECT_EQ(flat.predict(0), 42.0);
    EXPECT_EQ(flat.predict(9 * kWeek), 42.0);

    std::vector<double> weekly(sim::kSlotsPerWeek, 1.0);
    weekly[10] = 99.0;
    const auto tmpl = ProfileTemplate::fromWeekly(std::move(weekly));
    EXPECT_EQ(tmpl.predict(10 * kSlot), 99.0);
    EXPECT_EQ(tmpl.predict(kWeek + 10 * kSlot), 99.0);
    EXPECT_EQ(tmpl.predict(11 * kSlot), 1.0);
}

TEST(ProfileTemplate, PeakReflectsLargestPrediction)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    EXPECT_NEAR(tmpl.peak(), 300.0, 1e-9);
}

TEST(ProfileTemplate, RmseZeroForPerfectlyPeriodicSignal)
{
    const auto history = syntheticHistory(100.0, 300.0, 50.0);
    const auto tmpl = ProfileTemplate::build(
        TemplateStrategy::DailyMed, history);
    EXPECT_NEAR(tmpl.rmseAgainst(history), 0.0, 1e-9);
}

TEST(ProfileTemplate, BiasSignConventions)
{
    TimeSeries actual(0, kSlot, std::vector<double>(288, 100.0));
    const auto over = ProfileTemplate::flat(150.0);
    const auto under = ProfileTemplate::flat(60.0);
    EXPECT_GT(over.biasAgainst(actual), 0.0);
    EXPECT_LT(under.biasAgainst(actual), 0.0);
}

/**
 * Property (Fig. 15's headline): on realistic traces, DailyMed beats
 * FlatMed, FlatMax and Weekly in RMSE on the following week.
 */
class StrategyAccuracy : public ::testing::TestWithParam<int>
{
};

TEST_P(StrategyAccuracy, DailyMedWins)
{
    workload::TraceConfig cfg;
    cfg.end = 3 * kWeek;
    workload::TraceGenerator gen(500 + GetParam(), cfg);
    const power::PowerModel model;
    const auto trace = gen.serverTrace(gen.randomVmMix(64), model);
    const auto history = trace.powerWatts.slice(0, 2 * kWeek);
    const auto future =
        trace.powerWatts.slice(2 * kWeek, 3 * kWeek);

    auto rmse_of = [&](TemplateStrategy strategy) {
        return ProfileTemplate::build(strategy, history)
            .rmseAgainst(future);
    };
    const double daily_med = rmse_of(TemplateStrategy::DailyMed);
    EXPECT_LT(daily_med, rmse_of(TemplateStrategy::FlatMed));
    EXPECT_LT(daily_med, rmse_of(TemplateStrategy::FlatMax));
    EXPECT_LT(daily_med,
              rmse_of(TemplateStrategy::Weekly) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyAccuracy,
                         ::testing::Range(0, 6));

TEST(ProfileTemplate, StrategyNames)
{
    EXPECT_EQ(strategyName(TemplateStrategy::DailyMed), "DailyMed");
    EXPECT_EQ(strategyName(TemplateStrategy::FlatMax), "FlatMax");
}

namespace
{

/** Same bits, or both NaN (a mapped NaN need not keep its payload). */
bool
sameValue(double a, double b)
{
    return (std::isnan(a) && std::isnan(b)) ||
        std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** A week whose weekdays all repeat one shape and whose two weekend
 *  days repeat another. */
std::vector<double>
dailyWeek()
{
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    std::vector<double> week(
        static_cast<std::size_t>(sim::kSlotsPerWeek));
    for (std::size_t slot = 0; slot < week.size(); ++slot) {
        const std::size_t s = slot % day;
        week[slot] = slot / day >= 5 ? 40.0 + 0.25 * s
                                     : 300.0 - 0.5 * s;
    }
    return week;
}

/**
 * fillDayRowsMapped calls fn once per value @p tmpl stores
 * (@p storedValues) and writes fn of what fillDayRows writes.
 * @return the day rows fillDayRows wrote.
 */
std::vector<double>
expectMappedDayRows(const ProfileTemplate &tmpl,
                    std::size_t storedValues)
{
    const std::size_t width = ProfileTemplate::kDayRowSlots;
    std::vector<double> rows(width);
    std::vector<double> mapped(width);
    const auto fn = [](double v) { return 2.0 * v + 1.0; };
    std::size_t calls = 0;
    tmpl.fillDayRows(rows.data());
    tmpl.fillDayRowsMapped(mapped.data(), [&](double v) {
        ++calls;
        return fn(v);
    });
    EXPECT_EQ(calls, storedValues);
    for (std::size_t i = 0; i < width; ++i)
        EXPECT_TRUE(sameValue(mapped[i], fn(rows[i]))) << i;
    return rows;
}

/** @p tmpl reproduces @p week through every read path. */
void
expectReplaysWeek(const ProfileTemplate &tmpl,
                  const std::vector<double> &week)
{
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    for (std::size_t slot = 0; slot < slots; ++slot) {
        const auto t = static_cast<sim::Tick>(slot) * kSlot;
        ASSERT_TRUE(sameValue(tmpl.predict(t), week[slot])) << slot;
        ASSERT_TRUE(
            sameValue(tmpl.predict(t + 3 * kWeek), week[slot]))
            << slot;
        ASSERT_TRUE(sameValue(tmpl.predict(t - kWeek), week[slot]))
            << slot;
    }
    // Day rows exist exactly for the daily-repeating form: Monday's
    // and Saturday's slots, one fn call per stored value.
    if (tmpl.strategy() == TemplateStrategy::DailyMed) {
        const auto rows = expectMappedDayRows(
            tmpl, ProfileTemplate::kDayRowSlots);
        for (std::size_t s = 0; s < day; ++s) {
            EXPECT_TRUE(sameValue(rows[s], week[s])) << s;
            EXPECT_TRUE(sameValue(rows[day + s], week[5 * day + s]))
                << s;
        }
    } else {
        std::vector<double> rows(ProfileTemplate::kDayRowSlots);
        EXPECT_THROW(tmpl.fillDayRows(rows.data()),
                     std::invalid_argument);
        EXPECT_THROW(
            tmpl.fillDayRowsMapped(rows.data(),
                                   [](double v) { return v; }),
            std::invalid_argument);
    }
    // peak/trough of a stored week: std::max/min folds from 0.0 and
    // +inf, which skip NaN.
    double peak = 0.0;
    double trough = std::numeric_limits<double>::infinity();
    for (double v : week) {
        peak = std::max(peak, v);
        trough = std::min(trough, v);
    }
    EXPECT_TRUE(sameValue(tmpl.peak(), peak));
    EXPECT_TRUE(sameValue(tmpl.trough(), trough));
}

} // namespace

TEST(ProfileTemplate, RepeatingWeekStoredAsDayRows)
{
    const auto week = dailyWeek();
    const auto from = ProfileTemplate::fromWeekly(week);
    ProfileTemplate assigned = ProfileTemplate::flat(7.0);
    assigned.assignWeekly(week.data());
    for (const ProfileTemplate *tmpl :
         {&from, &std::as_const(assigned)}) {
        // Stored as one weekday and one weekend row.
        EXPECT_EQ(tmpl->strategy(), TemplateStrategy::DailyMed);
        expectReplaysWeek(*tmpl, week);
    }
    EXPECT_TRUE(from == assigned);

    // Weekdays that repeat one NaN bit for bit still repeat.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    auto nan_days = week;
    for (std::size_t d = 0; d < 5; ++d)
        nan_days[d * day + 17] = nan;
    const auto nan_tmpl = ProfileTemplate::fromWeekly(nan_days);
    EXPECT_EQ(nan_tmpl.strategy(), TemplateStrategy::DailyMed);
    expectReplaysWeek(nan_tmpl, nan_days);
}

TEST(ProfileTemplate, NonRepeatingWeekKeepsEverySlot)
{
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    auto one_slot = dailyWeek();
    one_slot[2 * day + 100] += 1.0; // Wednesday differs once
    auto sunday = dailyWeek();
    sunday[6 * day + 5] -= 1.0; // the weekend days differ once
    auto signed_zero = dailyWeek();
    for (std::size_t d = 0; d < 5; ++d)
        signed_zero[d * day + 7] = 0.0;
    signed_zero[1 * day + 7] = -0.0; // == 0.0, but other bits
    auto one_nan = dailyWeek();
    one_nan[3 * day + 42] = std::numeric_limits<double>::quiet_NaN();

    for (const auto *week :
         {&one_slot, &sunday, &signed_zero, &one_nan}) {
        const auto from = ProfileTemplate::fromWeekly(*week);
        ProfileTemplate assigned;
        assigned.assignWeekly(week->data());
        for (const ProfileTemplate *tmpl :
             {&from, &std::as_const(assigned)}) {
            EXPECT_EQ(tmpl->strategy(), TemplateStrategy::Weekly);
            expectReplaysWeek(*tmpl, *week);
        }
    }
    // The -0.0 survives where a value comparison would have merged
    // it into Monday's 0.0.
    EXPECT_TRUE(std::signbit(
        ProfileTemplate::fromWeekly(signed_zero).predict(
            kDay + 7 * kSlot)));

    // Reassigning switches representation both ways.
    ProfileTemplate tmpl = ProfileTemplate::fromWeekly(one_slot);
    tmpl.assignWeekly(dailyWeek().data());
    EXPECT_EQ(tmpl.strategy(), TemplateStrategy::DailyMed);
    EXPECT_TRUE(tmpl == ProfileTemplate::fromWeekly(dailyWeek()));
    tmpl.assignWeekly(one_slot.data());
    EXPECT_EQ(tmpl.strategy(), TemplateStrategy::Weekly);
    expectReplaysWeek(tmpl, one_slot);
}

TEST(ProfileTemplate, FlatDayRowsMapOneStoredValue)
{
    // A flat template, and a daily one built from no history, store
    // one value: fn runs once and fills both rows with it.
    const TimeSeries empty(0, kSlot);
    for (const auto &tmpl :
         {ProfileTemplate::flat(42.0),
          ProfileTemplate::build(TemplateStrategy::DailyMed, empty),
          ProfileTemplate::build(TemplateStrategy::Weekly, empty)}) {
        const auto rows = expectMappedDayRows(tmpl, 1);
        for (double v : rows)
            EXPECT_EQ(v, tmpl.predict(0));
    }
}

TEST(ProfileTemplate, AssignDayRowsStoresWhatAssignWeeklyStores)
{
    const auto week = dailyWeek();
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    std::vector<double> rows(week.begin(), week.begin() + day);
    rows.insert(rows.end(), week.begin() + 5 * day,
                week.begin() + 6 * day);
    ProfileTemplate assigned = ProfileTemplate::fromWeekly(week);
    assigned.assignWeekly(week.data());
    ProfileTemplate from_rows = ProfileTemplate::flat(7.0);
    from_rows.assignDayRows(rows.data());
    EXPECT_TRUE(from_rows == assigned);
    expectReplaysWeek(from_rows, week);
    EXPECT_TRUE(ProfileTemplate::repeatsDaily(week.data()));
    auto one_slot = week;
    one_slot[3 * day + 9] += 1.0;
    EXPECT_FALSE(ProfileTemplate::repeatsDaily(one_slot.data()));
}
