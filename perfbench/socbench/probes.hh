/**
 * @file
 * Per-layer probes of the traced run.  Each probe drives one layer's
 * public functions on the workload's own inputs — for the trace
 * workloads the same deriveSeed(seed, rack) streams, fleet shape,
 * control step and horizon on a fixed sample of racks; for the
 * service cluster its deployments, rack, agent settings and horizon
 * — with a span around every call (or every per-step batch of calls)
 * into the layer.  The per-call costs below are span time divided by
 * the work done.  A probe runs only on workloads whose simulator
 * drives that layer; every other figure stays 0.
 */

#ifndef SOCBENCH_PROBES_HH
#define SOCBENCH_PROBES_HH

#include "spans.hh"
#include "workloads.hh"

namespace socbench
{

struct ProbeResults {
    /** workload: randomVmMix + serverTraceStream +
     *  generateQuantized, per VM sample (trace workloads). */
    double genNsPerSample = 0.0;
    /** cluster: FleetState::applySlot, per rack-slot (trace
     *  workloads). */
    double applyNsPerSlot = 0.0;
    /** core: ServerOverclockingAgent::tick, per call. */
    double soaTickNs = 0.0;
    /** core: gOA pullProfiles / recomputeWithBudget, median. */
    double goaPullUs = 0.0;
    double goaSplitUs = 0.0;
    /** core: BudgetHierarchy::recompute after one rack changed
     *  (HierarchyZone workloads). */
    double hierarchyRecomputeUs = 0.0;
    /** core: HintIngress offer + drain, per offered frame
     *  (workloads with the ingress on). */
    double ingressNsPerHint = 0.0;
    /** power: RackManager::tick, per call. */
    double rackManagerTickNs = 0.0;
    /** sim: Simulator/EventQueue event dispatch, handlers included,
     *  per executed event (the service cluster). */
    double eventNs = 0.0;
    /** memory: heap growth from sOA construction to the end of the
     *  horizon, per server, in KiB: the sOAs' telemetry state plus
     *  the gOA's per-server profile and budget caches. */
    double soaKbPerServer = 0.0;
};

/** Run the probes of every layer workload @p w drives. */
ProbeResults runProbes(const Workload &w, Spans &spans);

} // namespace socbench

#endif // SOCBENCH_PROBES_HH
