#include "core/budget_hierarchy.hh"

#include <cassert>
#include <utility>

namespace soc
{
namespace core
{

BudgetHierarchy::BudgetHierarchy(const power::PowerModel &model,
                                 HierarchyConfig config)
    : model_(model), config_(config), allocator_(model, config.budget)
{
    assert(config_.racksPerRow > 0);
}

void
ProfileAggregator::aggregate(const ServerProfile *members,
                             std::size_t count, ServerProfile &out)
{
    assert(count > 0);
    const std::size_t slots = ProfileTemplate::kDayRowSlots;
    power_.assign(slots, 0.0);
    util_.assign(slots, 0.0);
    oc_.assign(slots, 0.0);
    req_.assign(slots, 0.0);
    // Member-outer with a bulk fillDayRows per template: each slot
    // accumulates members in index order, so every sum is
    // bit-identical to a per-tick predict loop over the week, whose
    // weekdays (and weekend days) repeat these rows.
    row_.resize(slots);
    const auto accumulate = [&](const ProfileTemplate &tmpl,
                                std::vector<double> &acc) {
        tmpl.fillDayRows(row_.data());
        for (std::size_t slot = 0; slot < slots; ++slot)
            acc[slot] += row_[slot];
    };
    for (std::size_t m = 0; m < count; ++m) {
        const ServerProfile &p = members[m];
        accumulate(p.power, power_);
        accumulate(p.utilization, util_);
        accumulate(p.overclockedCores, oc_);
        accumulate(p.requestedCores, req_);
    }
    // Power and core counts add; utilization is the members' mean
    // (it only feeds the allocator's per-core surcharge model, where
    // a representative utilization is what the flat split uses too).
    for (std::size_t slot = 0; slot < slots; ++slot)
        util_[slot] /= static_cast<double>(count);
    out.power.assignDayRows(power_.data());
    out.utilization.assignDayRows(util_.data());
    out.overclockedCores.assignDayRows(oc_.data());
    out.requestedCores.assignDayRows(req_.data());
}

int
BudgetHierarchy::addRack(std::vector<ServerProfile> profiles)
{
    assert(!profiles.empty());
    assert(!externalAggregates_ &&
           "BudgetHierarchy: addRack mixed with addRackAggregate");
    const int id = static_cast<int>(rackProfiles_.size());
    rackProfiles_.push_back(std::move(profiles));
    rackDirty_.push_back(true);

    const auto row = static_cast<std::size_t>(id) /
        static_cast<std::size_t>(config_.racksPerRow);
    if (row >= rowCount_) {
        rowCount_ = row + 1;
        rackAggregates_.emplace_back();
        rackBudgets_.emplace_back();
        rowAggregates_.emplace_back();
        rowDirty_.push_back(true);
    }
    rackAggregates_[row].emplace_back();
    rowDirty_[row] = true;
    return id;
}

int
BudgetHierarchy::addRackAggregate(ServerProfile aggregate)
{
    assert((rackProfiles_.empty() || externalAggregates_) &&
           "BudgetHierarchy: addRackAggregate mixed with addRack");
    externalAggregates_ = true;
    const int id = static_cast<int>(rackProfiles_.size());
    // The per-server slot stays empty: aggregates are pushed from
    // outside, the hierarchy never aggregates this rack itself.
    rackProfiles_.emplace_back();
    rackDirty_.push_back(false);

    const auto row = static_cast<std::size_t>(id) /
        static_cast<std::size_t>(config_.racksPerRow);
    if (row >= rowCount_) {
        rowCount_ = row + 1;
        rackAggregates_.emplace_back();
        rackBudgets_.emplace_back();
        rowAggregates_.emplace_back();
        rowDirty_.push_back(true);
    }
    rackAggregates_[row].push_back(std::move(aggregate));
    rowDirty_[row] = true;
    return id;
}

void
BudgetHierarchy::setRackProfiles(int rack,
                                 std::vector<ServerProfile> profiles)
{
    assert(!profiles.empty());
    assert(!externalAggregates_ &&
           "BudgetHierarchy: setRackProfiles on an aggregate rack");
    const auto r = static_cast<std::size_t>(rack);
    rackProfiles_[r] = std::move(profiles);
    rackDirty_[r] = true;
    rowDirty_[r / static_cast<std::size_t>(config_.racksPerRow)] =
        true;
}

void
BudgetHierarchy::exchangeRackAggregate(int rack,
                                       ServerProfile &aggregate)
{
    assert(externalAggregates_ &&
           "BudgetHierarchy: exchangeRackAggregate on addRack racks");
    const auto r = static_cast<std::size_t>(rack);
    const auto k = static_cast<std::size_t>(config_.racksPerRow);
    std::swap(rackAggregates_[r / k][r % k], aggregate);
    rowDirty_[r / k] = true;
}

void
BudgetHierarchy::recompute(power::Watts zoneLimit)
{
    if (rackProfiles_.empty())
        return;
    const auto k = static_cast<std::size_t>(config_.racksPerRow);

    // 1. Rebuild stale rack aggregates (dirty racks only; racks
    //    registered through addRackAggregate are never dirty — their
    //    aggregates arrive pre-built via exchangeRackAggregate).
    for (std::size_t r = 0; r < rackProfiles_.size(); ++r) {
        if (!rackDirty_[r])
            continue;
        aggregator_.aggregate(rackProfiles_[r].data(),
                              rackProfiles_[r].size(),
                              rackAggregates_[r / k][r % k]);
        rackDirty_[r] = false;
        ++stats_.rackAggregations;
    }

    // 2. Rebuild stale row aggregates from their rack aggregates.
    for (std::size_t row = 0; row < rowCount_; ++row) {
        if (!rowDirty_[row])
            continue;
        aggregator_.aggregate(rackAggregates_[row].data(),
                              rackAggregates_[row].size(),
                              rowAggregates_[row]);
        rowDirty_[row] = false;
        ++stats_.rowAggregations;
    }

    // 3. Zone -> rows.  The safety margin is applied here, once.
    const power::Watts usable =
        zoneLimit * (1.0 - config_.budget.safetyFraction);
    limitRow_.assign(ProfileTemplate::kDayRowSlots, usable.count());
    allocator_.splitDayRowsInto(limitRow_.data(), rowAggregates_,
                                rowBudgets_);
    ++stats_.splits;

    // 4. Row -> racks, per row, over the row budget's day rows.
    for (std::size_t row = 0; row < rowCount_; ++row) {
        rowBudgets_[row].fillDayRows(limitRow_.data());
        allocator_.splitDayRowsInto(limitRow_.data(),
                                    rackAggregates_[row],
                                    rackBudgets_[row]);
        ++stats_.splits;
    }
}

} // namespace core
} // namespace soc
