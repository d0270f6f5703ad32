/**
 * @file
 * One rack's control plane, shared by both cluster simulators: a gOA
 * that only updates budgets and sOAs that enforce them locally, under
 * the rack's fault plan (§III-Q5, DESIGN.md §8).
 */

#ifndef SOC_CLUSTER_RACK_CONTROL_HH
#define SOC_CLUSTER_RACK_CONTROL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/goa.hh"
#include "core/hint_ingress.hh"
#include "power/rack_manager.hh"
#include "sim/fault_injector.hh"
#include "sim/hint_storm.hh"

namespace soc
{
namespace cluster
{

/** The checks both simulators' validate() share; @p fail must throw
 *  (it adds the caller's config name to the message). */
template <typename Fail>
void
validateControlPlane(sim::Tick templateWindow,
                     const sim::FaultConfig &faults,
                     const core::HintIngressConfig &ingress,
                     const sim::HintStormConfig &storm, Fail &&fail)
{
    if (templateWindow < 0 ||
        (templateWindow > 0 && templateWindow % sim::kSlot != 0)) {
        fail("templateWindow must be 0 or a positive multiple of "
             "the telemetry slot");
    }
    faults.validate();
    ingress.validate();
    storm.validate();
    if (storm.enabled && !ingress.enabled) {
        fail("storm requires the ingress (there is no hint channel "
             "to attack otherwise)");
    }
}

/** The rack, its manager, gOA and sOAs, its fault plan and the budget
 *  pushes in flight.  Pinned: hooks and agents point into it. */
class RackControl
{
  public:
    /**
     * Draw the plan from (@p faults, @p seed, @p rackIndex,
     * @p planServers, @p horizon); with faults enabled, lease budgets
     * for 2 x @p period, so one missed recompute is tolerated.
     * @p model and @p soaConfig must outlive the instance.
     */
    RackControl(int rackIndex, power::Watts limit,
                const power::PowerModel &model,
                const core::SoaConfig &soaConfig,
                const sim::FaultConfig &faults, std::uint64_t seed,
                int planServers, sim::Tick horizon, sim::Tick period);
    RackControl(const RackControl &) = delete;
    RackControl &operator=(const RackControl &) = delete;

    /** Add a server and its sOA (faulty sensor hook included),
     *  registered with the manager, then the gOA. */
    core::ServerOverclockingAgent &addServer();

    /** Crash-restart every added sOA whose crash is due by @p now,
     *  calling @p onCrash(server, now) after each. */
    void applyCrashes(
        sim::Tick now,
        const std::function<void(std::size_t, sim::Tick)> &onCrash =
            {});

    /** Apply the queued budget pushes due by @p now; the loop itself
     *  allocates nothing (it runs on every control step). */
    void deliverDue(sim::Tick now);

    /** Recompute budgets (under a fault plan: with its telemetry
     *  faults, pushes queued for deliverDue); false while the gOA is
     *  down, counted as a skip. */
    bool recompute(sim::Tick now);

    /** Add crashes, skipped recomputes and, under a fault plan, the
     *  gOA's fault counters and the outages before @p end. */
    void harvestFaults(sim::Tick end, sim::FaultStats &into) const;

    power::Rack &rack() { return rack_; }
    const power::Rack &rack() const { return rack_; }
    power::RackManager &manager() { return manager_; }
    core::GlobalOverclockingAgent &goa() { return goa_; }
    const sim::FaultPlan &plan() const { return plan_; }
    std::size_t soaCount() const { return soas_.size(); }
    core::ServerOverclockingAgent &soa(std::size_t i) { return *soas_[i]; }

  private:
    const power::PowerModel &model_;
    const core::SoaConfig &soaConfig_;
    power::Rack rack_;
    power::RackManager manager_;
    const sim::FaultPlan plan_;
    core::GlobalOverclockingAgent goa_;
    std::vector<std::unique_ptr<core::ServerOverclockingAgent>> soas_;
    /** Budget pushes sorted by deliverAt; those from nextDelivery_
     *  on are still in flight. */
    std::vector<core::PendingAssignment> inFlight_;
    std::size_t nextDelivery_ = 0;
    std::size_t nextCrash_ = 0;
    /** soaCrashes and recomputesSkipped so far. */
    sim::FaultStats faults_;
};

} // namespace cluster
} // namespace soc

#endif // SOC_CLUSTER_RACK_CONTROL_HH
