#include "cluster/rack_control.hh"

#include <algorithm>
#include <utility>

namespace soc
{
namespace cluster
{

namespace
{

core::GoaConfig
goaConfigFor(bool faulted, sim::Tick period)
{
    core::GoaConfig config;
    config.leaseTtl = faulted ? 2 * period : 0;
    return config;
}

/** The recompute hooks of @p plan at @p now (they reference
 *  @p plan, which must outlive them). */
core::RecomputeFaults
recomputeFaultsAt(const sim::FaultPlan &plan, sim::Tick now)
{
    core::RecomputeFaults rf;
    rf.telemetryAttempts = plan.config().telemetryAttempts;
    rf.telemetryLost = [&plan, now](int server, int attempt) {
        return plan.telemetryLost(server, now, attempt);
    };
    rf.budgetLost = [&plan, now](int server) {
        return plan.budgetLost(server, now);
    };
    rf.budgetDelay = [&plan, now](int server) {
        return plan.budgetDelay(server, now);
    };
    rf.budgetCorrupt = [&plan, now](int server) {
        return plan.budgetCorrupted(server, now)
            ? plan.corruptionKind(server, now)
            : -1;
    };
    return rf;
}

} // namespace

RackControl::RackControl(int rackIndex, power::Watts limit,
                         const power::PowerModel &model,
                         const core::SoaConfig &soaConfig,
                         const sim::FaultConfig &faults,
                         std::uint64_t seed, int planServers,
                         sim::Tick horizon, sim::Tick period)
    : model_(model),
      soaConfig_(soaConfig),
      rack_(rackIndex, limit),
      manager_(rack_),
      plan_(sim::FaultPlan::generate(
          faults, seed, static_cast<std::uint64_t>(rackIndex),
          planServers, horizon)),
      goa_(rack_, model, goaConfigFor(faults.enabled, period))
{
}

core::ServerOverclockingAgent &
RackControl::addServer()
{
    soas_.push_back(std::make_unique<core::ServerOverclockingAgent>(
        rack_.addServer(&model_), soaConfig_, &rack_));
    core::ServerOverclockingAgent &soa = *soas_.back();
    const sim::FaultConfig &faults = plan_.config();
    if (plan_.enabled() &&
        (faults.sensorNoiseStd > 0.0 || faults.sensorBias != 0.0)) {
        const int s = static_cast<int>(soas_.size()) - 1;
        soa.setPowerSensor(
            [this, s](power::Watts watts, sim::Tick now) {
                return watts * plan_.sensorFactor(s, now);
            });
    }
    manager_.addListener(&soa);
    goa_.addAgent(&soa);
    return soa;
}

void
RackControl::applyCrashes(
    sim::Tick now,
    const std::function<void(std::size_t, sim::Tick)> &onCrash)
{
    const auto &crashes = plan_.crashes();
    for (; nextCrash_ < crashes.size() && crashes[nextCrash_].at <= now;
         ++nextCrash_) {
        const int server = crashes[nextCrash_].server;
        if (server < 0 || server >= static_cast<int>(soas_.size()))
            continue;
        soas_[static_cast<std::size_t>(server)]->crashRestart(now);
        ++faults_.soaCrashes;
        if (onCrash)
            onCrash(static_cast<std::size_t>(server), now);
    }
}

// soclint:hot-begin(PERF-001) — every control step of every rack.
void
RackControl::deliverDue(sim::Tick now)
{
    for (; nextDelivery_ < inFlight_.size() &&
         inFlight_[nextDelivery_].deliverAt <= now;
         ++nextDelivery_)
        goa_.deliver(inFlight_[nextDelivery_], now);
}
// soclint:hot-end(PERF-001)

bool
RackControl::recompute(sim::Tick now)
{
    if (plan_.goaDown(now)) {
        ++faults_.recomputesSkipped;
        return false;
    }
    if (!plan_.enabled()) {
        goa_.recompute(now);
        return true;
    }
    // Drop the delivered pushes, queue the new ones and stable-sort
    // by arrival, so equal arrival times keep their issue order.
    inFlight_.erase(inFlight_.begin(),
                    inFlight_.begin() +
                        static_cast<std::ptrdiff_t>(nextDelivery_));
    nextDelivery_ = 0;
    for (auto &pending :
         goa_.recompute(now, recomputeFaultsAt(plan_, now)))
        inFlight_.push_back(std::move(pending));
    std::stable_sort(inFlight_.begin(), inFlight_.end(),
                     [](const core::PendingAssignment &a,
                        const core::PendingAssignment &b) {
                         return a.deliverAt < b.deliverAt;
                     });
    return true;
}

void
RackControl::harvestFaults(sim::Tick end, sim::FaultStats &into) const
{
    into.soaCrashes += faults_.soaCrashes;
    into.recomputesSkipped += faults_.recomputesSkipped;
    if (!plan_.enabled())
        return;
    const core::GoaStats &goa = goa_.stats();
    into.telemetryRetries += goa.telemetryRetries;
    into.telemetryDrops += goa.staleProfiles;
    into.budgetDrops += goa.assignmentsDropped;
    into.budgetDelays += goa.assignmentsDelayed;
    into.budgetRejects += goa.assignmentsRejected;
    for (const auto &outage : plan_.outages())
        if (outage.start < end)
            ++into.goaOutages;
}

} // namespace cluster
} // namespace soc
