#include "core/budget_allocator.hh"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace soc
{
namespace core
{

namespace
{

/**
 * Working memory of one split, kept per thread by splitImpl: it
 * scales with threads rather than with the racks whose gOAs split (a
 * resident gOA holds none), and a thread's repeated splits reuse its
 * capacity.
 */
struct SplitScratch {
    /** Materialized per-profile day rows (n x kDayRowSlots,
     *  profile-major): regular power, overwritten slot by slot with
     *  the budget, and overclock demand. */
    std::vector<double> regularRows;
    std::vector<double> demandRows;
    /** The surcharge model mapped over one utilization template's
     *  day rows (fillDayRowsMapped). */
    std::vector<double> perCoreRow;
};

} // namespace

BudgetAllocator::BudgetAllocator(const power::PowerModel &model,
                                 BudgetConfig config)
    : model_(model), config_(config)
{
}

power::Watts
BudgetAllocator::regularPower(const ServerProfile &profile,
                              sim::Tick t) const
{
    const power::Watts total{profile.power.predict(t)};
    const double oc_cores = profile.overclockedCores.predict(t);
    const double util = profile.utilization.predict(t);
    const power::Watts surcharge = model_.overclockExtraPower(
        util, config_.demandFreq, 1) * std::max(0.0, oc_cores);
    return std::max(power::Watts{0.0}, total - surcharge);
}

power::Watts
BudgetAllocator::overclockDemand(const ServerProfile &profile,
                                 sim::Tick t) const
{
    const double requested = profile.requestedCores.predict(t);
    const double util = profile.utilization.predict(t);
    return model_.overclockExtraPower(util, config_.demandFreq, 1) *
        std::max(0.0, requested);
}

std::vector<ProfileTemplate>
BudgetAllocator::split(power::Watts limit,
                       const std::vector<ServerProfile> &profiles)
    const
{
    std::vector<ProfileTemplate> out;
    splitInto(limit, profiles, out);
    return out;
}

void
BudgetAllocator::splitInto(power::Watts limit,
                           const std::vector<ServerProfile> &profiles,
                           std::vector<ProfileTemplate> &out) const
{
    // Scratch buffers feed ProfileTemplate::assignDayRows, which
    // stores raw doubles; the unit drops to a raw count only at
    // the splitImpl boundary below.
    const power::Watts usable =
        limit * (1.0 - config_.safetyFraction);
    splitImpl(nullptr, usable.count(), profiles, out);
}

void
BudgetAllocator::splitWeeklyInto(
    const std::vector<double> &usablePerSlot,
    const std::vector<ServerProfile> &profiles,
    std::vector<ProfileTemplate> &out) const
{
    assert(usablePerSlot.size() ==
           static_cast<std::size_t>(sim::kSlotsPerWeek));
    const double *week = usablePerSlot.data();
    if (!ProfileTemplate::repeatsDaily(week)) {
        throw std::invalid_argument(
            "BudgetAllocator: per-slot limit does not repeat daily");
    }
    // Monday and Saturday stand for their day class.
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    std::array<double, ProfileTemplate::kDayRowSlots> rows;
    std::copy(week, week + day, rows.begin());
    std::copy(week + 5 * day, week + 6 * day, rows.begin() + day);
    splitImpl(rows.data(), 0.0, profiles, out);
}

void
BudgetAllocator::splitDayRowsInto(
    const double *usableDayRows,
    const std::vector<ServerProfile> &profiles,
    std::vector<ProfileTemplate> &out) const
{
    splitImpl(usableDayRows, 0.0, profiles, out);
}

void
BudgetAllocator::splitImpl(const double *usableDayRows,
                           double usableFlat,
                           const std::vector<ServerProfile> &profiles,
                           std::vector<ProfileTemplate> &out) const
{
    assert(!profiles.empty());
    const std::size_t n = profiles.size();
    const std::size_t slots = ProfileTemplate::kDayRowSlots;

    // Reused call to call on this thread (resize keeps capacity).
    thread_local SplitScratch scratch;

    // Phase 1: materialize each profile's regular-power and
    // overclock-demand day rows up front (profile-outer, bulk
    // fillDayRows), instead of 5 predict() calls per (slot, server).
    // The expressions mirror regularPower()/overclockDemand()
    // exactly — including computing the per-core surcharge once
    // from the same utilization both share — so every stored value
    // is bit-identical to the per-tick calls this replaces.  Each
    // row is first filled with the template it is computed from
    // (power, then overclocked and requested cores), then rewritten
    // in place.  The surcharge model is mapped over the utilization
    // template with fillDayRowsMapped: a pure function of the
    // utilization value, so evaluating it per stored value (one
    // call for a flat template) changes nothing, while the model
    // evaluation per (server, slot) dominated recompute cost.
    scratch.regularRows.resize(n * slots);
    scratch.demandRows.resize(n * slots);
    scratch.perCoreRow.resize(slots);
    const double *per_core_row = scratch.perCoreRow.data();
    for (std::size_t i = 0; i < n; ++i) {
        double *regular_row = &scratch.regularRows[i * slots];
        double *demand_row = &scratch.demandRows[i * slots];
        profiles[i].utilization.fillDayRowsMapped(
            scratch.perCoreRow.data(), [this](double util) {
                return model_
                    .overclockExtraPower(util, config_.demandFreq, 1)
                    .count();
            });
        profiles[i].power.fillDayRows(regular_row);
        profiles[i].overclockedCores.fillDayRows(demand_row);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const power::Watts surcharge =
                power::Watts{per_core_row[slot]} *
                std::max(0.0, demand_row[slot]);
            regular_row[slot] =
                std::max(power::Watts{0.0},
                         power::Watts{regular_row[slot]} - surcharge)
                    .count();
        }
        profiles[i].requestedCores.fillDayRows(demand_row);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            demand_row[slot] = (power::Watts{per_core_row[slot]} *
                                std::max(0.0, demand_row[slot]))
                                   .count();
        }
    }

    for (std::size_t slot = 0; slot < slots; ++slot) {
        const double usable = usableDayRows != nullptr
            ? usableDayRows[slot]
            : usableFlat;
        double *regular = &scratch.regularRows[slot];
        const double *demand = &scratch.demandRows[slot];

        // Phase 2: regular power is the initial budget.
        double regular_sum = 0.0;
        double demand_sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            regular_sum += regular[i * slots];
            demand_sum += demand[i * slots];
        }

        const double headroom = usable - regular_sum;
        if (headroom <= 0.0) {
            // Predicted overload even without overclocking: scale
            // regular budgets to fit so enforcement remains safe.
            const double scale =
                regular_sum > 0.0 ? usable / regular_sum : 0.0;
            for (std::size_t i = 0; i < n; ++i)
                regular[i * slots] *= scale;
            continue;
        }

        // Phase 3: split headroom by overclock demand; with no
        // recorded demand anywhere, fall back to an even split so
        // fresh servers can still explore.
        for (std::size_t i = 0; i < n; ++i) {
            const double share = demand_sum > 0.0
                ? headroom * (demand[i * slots] / demand_sum)
                : headroom / static_cast<double>(n);
            regular[i * slots] += share;
        }
    }

    // Each regular row now holds its server's budget day rows.
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i].assignDayRows(&scratch.regularRows[i * slots]);
}

} // namespace core
} // namespace soc
