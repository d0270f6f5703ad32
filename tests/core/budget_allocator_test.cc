/** @file Unit tests for the heterogeneous budget allocator (§IV-C). */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/budget_allocator.hh"
#include "core/budget_hierarchy.hh"
#include "core/goa.hh"
#include "telemetry/time_series.hh"

using namespace soc;
using namespace soc::core;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

ServerProfile
flatProfile(double watts, double util, double oc_cores,
            double req_cores)
{
    ServerProfile profile;
    profile.power = ProfileTemplate::flat(watts);
    profile.utilization = ProfileTemplate::flat(util);
    profile.overclockedCores = ProfileTemplate::flat(oc_cores);
    profile.requestedCores = ProfileTemplate::flat(req_cores);
    return profile;
}

} // namespace

TEST(BudgetAllocator, PaperWorkedExampleProportions)
{
    // §IV-C: limit 1.3 kW, regular 400/300 W, overclock demand in
    // ratio 1:2 => budgets 400 + 200 = 600 and 300 + 400 = 700.
    // We reproduce the proportions with demand expressed through
    // requested cores (5 vs 10 at equal utilization).
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets = allocator.split(
        power::Watts{1300.0}, {flatProfile(400.0, 0.6, 0.0, 5.0),
                 flatProfile(300.0, 0.6, 0.0, 10.0)});
    ASSERT_EQ(budgets.size(), 2u);
    const double bx = budgets[0].predict(0);
    const double by = budgets[1].predict(0);
    // Headroom = 600 W split 1:2.
    EXPECT_NEAR(bx, 400.0 + 600.0 / 3.0, 1e-6);
    EXPECT_NEAR(by, 300.0 + 2.0 * 600.0 / 3.0, 1e-6);
}

TEST(BudgetAllocator, BudgetsSumToUsableLimit)
{
    BudgetAllocator allocator(model());
    const double limit = 2000.0;
    const auto budgets = allocator.split(
        power::Watts{limit}, {flatProfile(400.0, 0.5, 0.0, 4.0),
                flatProfile(350.0, 0.7, 0.0, 8.0),
                flatProfile(500.0, 0.9, 0.0, 2.0)});
    double sum = 0.0;
    for (const auto &b : budgets)
        sum += b.predict(0);
    EXPECT_NEAR(sum, limit * 0.995, 1e-6); // default 0.5% safety
}

TEST(BudgetAllocator, NoDemandFallsBackToEvenHeadroomSplit)
{
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets = allocator.split(
        power::Watts{1000.0}, {flatProfile(300.0, 0.5, 0.0, 0.0),
                 flatProfile(500.0, 0.5, 0.0, 0.0)});
    EXPECT_NEAR(budgets[0].predict(0), 300.0 + 100.0, 1e-6);
    EXPECT_NEAR(budgets[1].predict(0), 500.0 + 100.0, 1e-6);
}

TEST(BudgetAllocator, OverloadScalesRegularBudgets)
{
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    // Regular draws sum to 1200 W against a 600 W limit.
    const auto budgets = allocator.split(
        power::Watts{600.0}, {flatProfile(800.0, 0.9, 0.0, 4.0),
                flatProfile(400.0, 0.9, 0.0, 4.0)});
    EXPECT_NEAR(budgets[0].predict(0), 400.0, 1e-6);
    EXPECT_NEAR(budgets[1].predict(0), 200.0, 1e-6);
}

TEST(BudgetAllocator, RegularPowerSubtractsOverclockSurcharge)
{
    BudgetAllocator allocator(model());
    // A server that historically ran 6 cores overclocked: its
    // "regular" power strips the modelled surcharge.
    const auto profile = flatProfile(450.0, 0.8, 6.0, 6.0);
    const power::Watts surcharge = model().overclockExtraPower(
        0.8, power::kOverclockMHz, 6);
    EXPECT_NEAR(allocator.regularPower(profile, 0).count(),
                450.0 - surcharge.count(), 1e-9);
}

TEST(BudgetAllocator, DemandUsesRequestedCores)
{
    BudgetAllocator allocator(model());
    const auto quiet = flatProfile(400.0, 0.8, 0.0, 0.0);
    const auto hungry = flatProfile(400.0, 0.8, 0.0, 12.0);
    EXPECT_EQ(allocator.overclockDemand(quiet, 0),
              power::Watts{0.0});
    EXPECT_GT(allocator.overclockDemand(hungry, 0),
              power::Watts{0.0});
}

TEST(BudgetAllocator, BudgetNeverNegative)
{
    BudgetAllocator allocator(model());
    const auto budgets = allocator.split(
        power::Watts{100.0}, {flatProfile(800.0, 1.0, 0.0, 8.0),
                flatProfile(0.0, 0.0, 0.0, 0.0)});
    for (const auto &b : budgets)
        for (sim::Tick t = 0; t < sim::kWeek; t += sim::kHour)
            EXPECT_GE(b.predict(t), 0.0);
}

TEST(BudgetAllocator, TimeVaryingProfilesGetTimeVaryingBudgets)
{
    // Server A is hungry at night, server B during the day; the
    // headroom must follow demand across slots.
    std::vector<double> day_hungry(sim::kSlotsPerWeek, 0.0);
    std::vector<double> night_hungry(sim::kSlotsPerWeek, 0.0);
    for (int slot = 0; slot < sim::kSlotsPerWeek; ++slot) {
        const double hour =
            sim::hourOfDay(static_cast<sim::Tick>(slot) * sim::kSlot);
        if (hour >= 9 && hour < 17)
            day_hungry[slot] = 8.0;
        else
            night_hungry[slot] = 8.0;
    }
    ServerProfile a = flatProfile(400.0, 0.6, 0.0, 0.0);
    a.requestedCores = ProfileTemplate::fromWeekly(day_hungry);
    ServerProfile b = flatProfile(400.0, 0.6, 0.0, 0.0);
    b.requestedCores = ProfileTemplate::fromWeekly(night_hungry);

    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets =
        allocator.split(power::Watts{1000.0}, {a, b});

    const sim::Tick noon = 12 * sim::kHour;
    const sim::Tick midnight = 1 * sim::kHour;
    EXPECT_GT(budgets[0].predict(noon), budgets[1].predict(noon));
    EXPECT_LT(budgets[0].predict(midnight),
              budgets[1].predict(midnight));
}

TEST(BudgetAllocator, SingleServerGetsWholeUsableLimit)
{
    BudgetConfig cfg;
    cfg.safetyFraction = 0.0;
    BudgetAllocator allocator(model(), cfg);
    const auto budgets = allocator.split(
        power::Watts{900.0}, {flatProfile(300.0, 0.5, 0.0, 4.0)});
    EXPECT_NEAR(budgets[0].predict(0), 900.0, 1e-6);
}

namespace
{

/** A random DailyMed template (two weeks of random telemetry from a
 *  random start) or, one time in three, a random flat one. */
ProfileTemplate
randomTemplate(std::mt19937_64 &rng, double lo, double hi)
{
    std::uniform_real_distribution<double> value(lo, hi);
    if (rng() % 3 == 0)
        return ProfileTemplate::flat(value(rng));
    const auto start = static_cast<sim::Tick>(rng() % 2016) * sim::kSlot;
    telemetry::TimeSeries history(start, sim::kSlot);
    for (int i = 0; i < 2 * sim::kSlotsPerWeek; ++i)
        history.append(value(rng));
    return ProfileTemplate::build(TemplateStrategy::DailyMed, history);
}

/** A week of @p value everywhere except one slot of Wednesday. */
std::vector<double>
weekWithOddWednesday(double value)
{
    std::vector<double> week(
        static_cast<std::size_t>(sim::kSlotsPerWeek), value);
    week[2 * static_cast<std::size_t>(sim::kSlotsPerDay) + 100] += 1.0;
    return week;
}

} // namespace

TEST(BudgetAllocator, DayRowSplitMatchesPerTickReference)
{
    // The split runs over day rows; every budget must still predict,
    // at each of the week's 2,016 slots, exactly what phases 2-3
    // give over the per-tick regularPower()/overclockDemand() values
    // of that slot.
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    const auto week = static_cast<std::size_t>(sim::kSlotsPerWeek);
    std::mt19937_64 rng(2024);
    BudgetAllocator allocator(model());
    for (int trial = 0; trial < 24; ++trial) {
        const std::size_t n = 1 + static_cast<std::size_t>(trial % 5);
        std::vector<ServerProfile> profiles(n);
        for (auto &p : profiles) {
            p.power = randomTemplate(rng, 50.0, 450.0);
            p.utilization = randomTemplate(rng, 0.0, 1.0);
            p.overclockedCores = randomTemplate(rng, -1.0, 8.0);
            // Every fourth trial requests nothing anywhere: the even
            // headroom split.
            p.requestedCores = trial % 4 == 3
                ? ProfileTemplate::flat(0.0)
                : randomTemplate(rng, -1.0, 8.0);
        }
        // A per-slot usable row repeating daily, loose enough for
        // headroom and tight enough for overloads.
        std::uniform_real_distribution<double> limit(
            100.0 * static_cast<double>(n),
            450.0 * static_cast<double>(n));
        std::vector<double> weekday(day);
        std::vector<double> weekend(day);
        for (std::size_t s = 0; s < day; ++s) {
            weekday[s] = limit(rng);
            weekend[s] = limit(rng);
        }
        std::vector<double> usable(week);
        for (std::size_t slot = 0; slot < week; ++slot)
            usable[slot] =
                (slot / day >= 5 ? weekend : weekday)[slot % day];

        std::vector<ProfileTemplate> budgets;
        allocator.splitWeeklyInto(usable, profiles, budgets);
        ASSERT_EQ(budgets.size(), n);

        std::vector<double> regular(n);
        std::vector<double> demand(n);
        for (std::size_t slot = 0; slot < week; ++slot) {
            const auto t = static_cast<sim::Tick>(slot) * sim::kSlot;
            double regular_sum = 0.0;
            double demand_sum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                regular[i] =
                    allocator.regularPower(profiles[i], t).count();
                demand[i] =
                    allocator.overclockDemand(profiles[i], t).count();
                regular_sum += regular[i];
                demand_sum += demand[i];
            }
            const double headroom = usable[slot] - regular_sum;
            for (std::size_t i = 0; i < n; ++i) {
                double expected = regular[i];
                if (headroom <= 0.0) {
                    expected *= regular_sum > 0.0
                        ? usable[slot] / regular_sum
                        : 0.0;
                } else {
                    expected += demand_sum > 0.0
                        ? headroom * (demand[i] / demand_sum)
                        : headroom / static_cast<double>(n);
                }
                ASSERT_EQ(budgets[i].predict(t), expected)
                    << "trial " << trial << " server " << i
                    << " slot " << slot;
            }
        }
    }
}

TEST(BudgetAllocator, RejectsNonRepeatingInputs)
{
    // Every split, aggregate and recompute runs over day rows; an
    // input whose week does not repeat daily has none and is
    // refused rather than silently read as its Monday and Saturday.
    BudgetAllocator allocator(model());
    const ProfileTemplate weekly =
        ProfileTemplate::fromWeekly(weekWithOddWednesday(2.0));
    ASSERT_EQ(weekly.strategy(), TemplateStrategy::Weekly);
    for (int field = 0; field < 4; ++field) {
        std::vector<ServerProfile> profiles = {
            flatProfile(400.0, 0.5, 1.0, 4.0),
            flatProfile(350.0, 0.7, 0.0, 8.0),
        };
        ProfileTemplate *slots[] = {
            &profiles[1].power, &profiles[1].utilization,
            &profiles[1].overclockedCores, &profiles[1].requestedCores};
        *slots[field] = weekly;
        EXPECT_THROW(allocator.split(power::Watts{2000.0}, profiles),
                     std::invalid_argument)
            << field;
        ServerProfile aggregate;
        ProfileAggregator aggregator;
        EXPECT_THROW(aggregator.aggregate(profiles.data(),
                                          profiles.size(), aggregate),
                     std::invalid_argument)
            << field;
    }

    const std::vector<ServerProfile> profiles = {
        flatProfile(400.0, 0.5, 1.0, 4.0),
        flatProfile(350.0, 0.7, 0.0, 8.0),
    };
    auto sunday = std::vector<double>(
        static_cast<std::size_t>(sim::kSlotsPerWeek), 1500.0);
    sunday[6 * static_cast<std::size_t>(sim::kSlotsPerDay) + 3] = 1400.0;
    std::vector<ProfileTemplate> out;
    for (const auto &row : {weekWithOddWednesday(1500.0), sunday}) {
        EXPECT_THROW(allocator.splitWeeklyInto(row, profiles, out),
                     std::invalid_argument);
    }

    // The gOA refuses the row before pushing anything.
    power::Rack rack(0, power::Watts{1500.0});
    GlobalOverclockingAgent goa(rack, model());
    std::vector<std::unique_ptr<ServerOverclockingAgent>> soas;
    for (int i = 0; i < 2; ++i) {
        power::Server &server = rack.addServer(&model());
        server.addGroup(8, 0.4, power::kTurboMHz, 1);
        soas.push_back(std::make_unique<ServerOverclockingAgent>(
            server, SoaConfig{}, &rack));
        goa.addAgent(soas.back().get());
    }
    goa.assignEvenSplit();
    goa.pullProfiles();
    EXPECT_THROW(
        goa.recomputeWithBudget(0, weekWithOddWednesday(1400.0)),
        std::invalid_argument);
    EXPECT_EQ(goa.recomputeCount(), 0u);
    goa.recomputeWithBudget(
        0, std::vector<double>(
               static_cast<std::size_t>(sim::kSlotsPerWeek), 1400.0));
    EXPECT_EQ(goa.recomputeCount(), 1u);
}
