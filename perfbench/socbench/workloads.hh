/**
 * @file
 * The benchmark's named workloads.  Each one is a single call into a
 * public simulator entry point (cluster::runTraceSim or
 * cluster::runServiceSim) whose configuration is fixed here; only
 * the seed and, for the self-tests, the thread count and stream
 * window vary.
 */

#ifndef SOCBENCH_WORKLOADS_HH
#define SOCBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/service_sim.hh"
#include "cluster/trace_sim.hh"

namespace socbench
{

struct Workload {
    std::string name;
    /** True: runServiceSim(service); false: runTraceSim(trace). */
    bool isService = false;
    soc::cluster::TraceSimConfig trace;
    soc::cluster::ServiceSimConfig service;
    /** Simulated servers, for the per-server memory metric. */
    int servers = 0;
    /** Simulated server-hours of one run (servers x horizon). */
    double serverHours = 0.0;
    /** Worker threads the run uses (1 for the serial service sim). */
    int threads = 1;
};

/** Names accepted by makeWorkload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed with @p threads workers.
 * Returns nullopt for an unknown name.
 */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed, int threads);

} // namespace socbench

#endif // SOCBENCH_WORKLOADS_HH
