#include "core/budget_allocator.hh"

#include <algorithm>
#include <cassert>

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
    /** Materialized per-profile weeks (n x kSlotsPerWeek,
     *  profile-major): regular power, overwritten slot by slot with
     *  the budget, and overclock demand. */
    std::vector<double> regularRows;
    std::vector<double> demandRows;
    /** The surcharge model mapped over one utilization week
     *  (fillWeekMapped). */
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
    // Scratch buffers feed ProfileTemplate::assignWeekly, which
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
    splitImpl(usablePerSlot.data(), 0.0, profiles, out);
}

void
BudgetAllocator::splitImpl(const double *usablePerSlot,
                           double usableFlat,
                           const std::vector<ServerProfile> &profiles,
                           std::vector<ProfileTemplate> &out) const
{
    assert(!profiles.empty());
    const std::size_t n = profiles.size();
    const auto slots = static_cast<std::size_t>(sim::kSlotsPerWeek);

    // Reused call to call on this thread (resize keeps capacity).
    thread_local SplitScratch scratch;

    // Phase 1: materialize each profile's regular-power and
    // overclock-demand weeks up front (profile-outer, bulk
    // fillWeek), instead of 5 predict() calls per (slot, server).
    // The expressions mirror regularPower()/overclockDemand()
    // exactly — including computing the per-core surcharge once
    // from the same utilization both share — so every stored value
    // is bit-identical to the per-tick calls this replaces.  Each
    // row is first filled with the template it is computed from
    // (power, then overclocked and requested cores), then rewritten
    // in place.  The surcharge model is mapped over the utilization
    // template with fillWeekMapped: a pure function of the
    // utilization value, so evaluating it per distinct stored value
    // (576 for DailyMed instead of 2016) changes nothing, while the
    // model evaluation per (server, slot) dominated recompute cost.
    scratch.regularRows.resize(n * slots);
    scratch.demandRows.resize(n * slots);
    scratch.perCoreRow.resize(slots);
    const double *per_core_row = scratch.perCoreRow.data();
    for (std::size_t i = 0; i < n; ++i) {
        double *regular_row = &scratch.regularRows[i * slots];
        double *demand_row = &scratch.demandRows[i * slots];
        profiles[i].utilization.fillWeekMapped(
            scratch.perCoreRow.data(), [this](double util) {
                return model_
                    .overclockExtraPower(util, config_.demandFreq, 1)
                    .count();
            });
        profiles[i].power.fillWeek(regular_row);
        profiles[i].overclockedCores.fillWeek(demand_row);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            const power::Watts surcharge =
                power::Watts{per_core_row[slot]} *
                std::max(0.0, demand_row[slot]);
            regular_row[slot] =
                std::max(power::Watts{0.0},
                         power::Watts{regular_row[slot]} - surcharge)
                    .count();
        }
        profiles[i].requestedCores.fillWeek(demand_row);
        for (std::size_t slot = 0; slot < slots; ++slot) {
            demand_row[slot] = (power::Watts{per_core_row[slot]} *
                                std::max(0.0, demand_row[slot]))
                                   .count();
        }
    }

    for (std::size_t slot = 0; slot < slots; ++slot) {
        const double usable = usablePerSlot != nullptr
            ? usablePerSlot[slot]
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

    // Each regular row now holds its server's budget week.
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i].assignWeekly(&scratch.regularRows[i * slots]);
}

} // namespace core
} // namespace soc
