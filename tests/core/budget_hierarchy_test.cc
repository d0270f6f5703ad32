/** @file Unit tests for the rack -> row -> zone budget tier. */

#include <gtest/gtest.h>

#include <vector>

#include "core/budget_hierarchy.hh"

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

/** A small synthetic fleet: @p racks racks of @p servers servers,
 *  with per-rack variation so the splits are non-trivial. */
std::vector<std::vector<ServerProfile>>
fleetProfiles(int racks, int servers)
{
    std::vector<std::vector<ServerProfile>> fleet;
    for (int r = 0; r < racks; ++r) {
        std::vector<ServerProfile> rack;
        for (int s = 0; s < servers; ++s) {
            rack.push_back(flatProfile(300.0 + 10.0 * (r % 5),
                                       0.4 + 0.05 * (s % 4),
                                       static_cast<double>(s % 3),
                                       4.0 + (r + s) % 6));
        }
        fleet.push_back(std::move(rack));
    }
    return fleet;
}

} // namespace

TEST(BudgetHierarchy, RackBudgetsConserveZoneLimit)
{
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;
    cfg.budget.safetyFraction = 0.0;
    BudgetHierarchy hierarchy(model(), cfg);
    for (auto &rack : fleetProfiles(12, 6))
        hierarchy.addRack(std::move(rack));
    const double zone = 12 * 6 * 450.0;
    hierarchy.recompute(power::Watts{zone});

    ASSERT_EQ(hierarchy.racks(), 12u);
    EXPECT_EQ(hierarchy.rows(), 3u);
    double total = 0.0;
    for (int r = 0; r < 12; ++r)
        total += hierarchy.rackBudget(r).predict(0);
    // Both split levels conserve exactly when headroom is positive.
    EXPECT_NEAR(total, zone, zone * 1e-9);
}

TEST(BudgetHierarchy, HigherDemandRackGetsMoreBudget)
{
    HierarchyConfig cfg;
    cfg.racksPerRow = 2;
    BudgetHierarchy hierarchy(model(), cfg);
    // Two racks in one row: identical regular power, demand 2 vs 12
    // requested cores per server.
    hierarchy.addRack({flatProfile(300.0, 0.5, 0.0, 2.0),
                       flatProfile(300.0, 0.5, 0.0, 2.0)});
    hierarchy.addRack({flatProfile(300.0, 0.5, 0.0, 12.0),
                       flatProfile(300.0, 0.5, 0.0, 12.0)});
    hierarchy.recompute(power::Watts{2000.0});
    EXPECT_GT(hierarchy.rackBudget(1).predict(0),
              hierarchy.rackBudget(0).predict(0));
}

TEST(BudgetHierarchy, SingleRackReceivesWholeUsableLimit)
{
    HierarchyConfig cfg;
    cfg.budget.safetyFraction = 0.01;
    BudgetHierarchy hierarchy(model(), cfg);
    hierarchy.addRack({flatProfile(350.0, 0.5, 1.0, 6.0),
                       flatProfile(420.0, 0.6, 0.0, 3.0)});
    hierarchy.recompute(power::Watts{3000.0});
    // One rack in one row: every split is a 1-member split, so the
    // whole usable budget (margin applied exactly once) lands on it.
    EXPECT_NEAR(hierarchy.rackBudget(0).predict(0), 3000.0 * 0.99,
                1e-6);
}

TEST(BudgetHierarchy, IncrementalRecomputeMatchesFreshBuild)
{
    const auto fleet = fleetProfiles(10, 5);
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;

    BudgetHierarchy incremental(model(), cfg);
    for (const auto &rack : fleet)
        incremental.addRack(rack);
    incremental.recompute(power::Watts{20000.0});

    // Mutate one rack and recompute incrementally.
    auto changed = fleet;
    changed[7][2] = flatProfile(500.0, 0.9, 2.0, 10.0);
    const auto base_aggs = incremental.stats().rackAggregations;
    incremental.setRackProfiles(7, changed[7]);
    incremental.recompute(power::Watts{20000.0});
    // Only the one dirty rack was re-aggregated.
    EXPECT_EQ(incremental.stats().rackAggregations - base_aggs, 1u);

    // A hierarchy built fresh over the mutated fleet agrees
    // bit-identically on every rack budget.
    BudgetHierarchy fresh(model(), cfg);
    for (const auto &rack : changed)
        fresh.addRack(rack);
    fresh.recompute(power::Watts{20000.0});
    for (int r = 0; r < 10; ++r)
        EXPECT_EQ(incremental.rackBudget(r), fresh.rackBudget(r))
            << "rack " << r;
}

TEST(BudgetHierarchy, CleanRecomputeSkipsAllAggregation)
{
    BudgetHierarchy hierarchy(model(), {});
    for (auto &rack : fleetProfiles(6, 4))
        hierarchy.addRack(std::move(rack));
    hierarchy.recompute(power::Watts{10000.0});
    const auto aggs = hierarchy.stats().rackAggregations;
    const auto row_aggs = hierarchy.stats().rowAggregations;
    // Limit changes re-split but touch no aggregates.
    hierarchy.recompute(power::Watts{12000.0});
    EXPECT_EQ(hierarchy.stats().rackAggregations, aggs);
    EXPECT_EQ(hierarchy.stats().rowAggregations, row_aggs);
}

TEST(BudgetAllocatorWeekly, ConstantRowMatchesScalarSplit)
{
    BudgetConfig cfg;
    BudgetAllocator allocator(model(), cfg);
    const std::vector<ServerProfile> profiles = {
        flatProfile(400.0, 0.5, 1.0, 4.0),
        flatProfile(350.0, 0.7, 0.0, 8.0),
    };
    const auto scalar =
        allocator.split(power::Watts{2000.0}, profiles);

    const double usable = 2000.0 * (1.0 - cfg.safetyFraction);
    std::vector<double> row(
        static_cast<std::size_t>(sim::kSlotsPerWeek), usable);
    std::vector<ProfileTemplate> weekly;
    allocator.splitWeeklyInto(row, profiles, weekly);

    ASSERT_EQ(scalar.size(), weekly.size());
    for (std::size_t i = 0; i < scalar.size(); ++i)
        EXPECT_EQ(scalar[i], weekly[i]);
}

TEST(BudgetHierarchy, AggregateRacksMatchPerServerRacks)
{
    // A hierarchy fed pre-built rack aggregates (the trace sim's
    // form: gOAs reduce their own servers with ProfileAggregator)
    // must produce bit-identical budgets to one holding the
    // per-server profiles itself.
    const auto fleet = fleetProfiles(10, 5);
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;

    BudgetHierarchy internal(model(), cfg);
    for (const auto &rack : fleet)
        internal.addRack(rack);
    internal.recompute(power::Watts{20000.0});

    BudgetHierarchy external(model(), cfg);
    ProfileAggregator aggregator;
    for (const auto &rack : fleet) {
        ServerProfile aggregate;
        aggregator.aggregate(rack.data(), rack.size(), aggregate);
        external.addRackAggregate(std::move(aggregate));
    }
    external.recompute(power::Watts{20000.0});
    // Externally-aggregated racks never trigger step-1 aggregation.
    EXPECT_EQ(external.stats().rackAggregations, 0u);

    ASSERT_EQ(external.racks(), internal.racks());
    for (int r = 0; r < 10; ++r)
        EXPECT_EQ(external.rackBudget(r), internal.rackBudget(r))
            << "rack " << r;
}

TEST(BudgetHierarchy, ExchangePropagatesDirtinessToItsRowOnly)
{
    const auto fleet = fleetProfiles(8, 4);
    HierarchyConfig cfg;
    cfg.racksPerRow = 4;

    BudgetHierarchy hierarchy(model(), cfg);
    ProfileAggregator aggregator;
    for (const auto &rack : fleet) {
        ServerProfile aggregate;
        aggregator.aggregate(rack.data(), rack.size(), aggregate);
        hierarchy.addRackAggregate(std::move(aggregate));
    }
    hierarchy.recompute(power::Watts{16000.0});
    const auto row_aggs = hierarchy.stats().rowAggregations;

    // Swap a hotter aggregate into rack 6 (row 1); its old
    // aggregate comes back in the slot for reuse.
    std::vector<ServerProfile> hot(
        4, flatProfile(500.0, 0.9, 2.0, 10.0));
    ServerProfile slot;
    aggregator.aggregate(hot.data(), hot.size(), slot);
    hierarchy.exchangeRackAggregate(6, slot);
    hierarchy.recompute(power::Watts{16000.0});
    // Only the touched row re-aggregated; budgets match a fresh
    // build over the same aggregates.
    EXPECT_EQ(hierarchy.stats().rowAggregations - row_aggs, 1u);

    BudgetHierarchy fresh(model(), cfg);
    for (int r = 0; r < 8; ++r) {
        const auto &rack = fleet[static_cast<std::size_t>(r)];
        ServerProfile aggregate;
        if (r == 6)
            aggregator.aggregate(hot.data(), hot.size(), aggregate);
        else
            aggregator.aggregate(rack.data(), rack.size(),
                                 aggregate);
        fresh.addRackAggregate(std::move(aggregate));
    }
    fresh.recompute(power::Watts{16000.0});
    for (int r = 0; r < 8; ++r)
        EXPECT_EQ(hierarchy.rackBudget(r), fresh.rackBudget(r))
            << "rack " << r;
}
