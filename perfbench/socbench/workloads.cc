#include "workloads.hh"

#include "sim/fault_injector.hh"
#include "sim/hint_storm.hh"
#include "sim/time.hh"

namespace socbench
{

using namespace soc;

namespace
{

/** The trace_sim_bench --paper-scale config: HierarchyZone replay
 *  through the direct hint path. */
cluster::TraceSimConfig
paperScale(int racks, std::uint64_t seed, int threads)
{
    cluster::TraceSimConfig cfg;
    cfg.racks = racks;
    cfg.serversPerRack = 8;
    cfg.warmup = 6 * sim::kHour;
    cfg.duration = 6 * sim::kHour;
    cfg.recomputePeriod = 3 * sim::kHour;
    cfg.controlStep = 300 * sim::kSecond;
    cfg.requestChunk = sim::kHour;
    cfg.templateWindow = sim::kWeek;
    cfg.streamWindow = sim::kDay;
    cfg.budgetPath = cluster::BudgetPath::HierarchyZone;
    cfg.racksPerRow = 8;
    cfg.threads = threads;
    cfg.seed = seed;
    return cfg;
}

Workload
traceWorkload(std::string name, cluster::TraceSimConfig cfg)
{
    Workload w;
    w.name = std::move(name);
    w.trace = cfg;
    w.servers = cfg.racks * cfg.serversPerRack;
    w.serverHours = w.servers *
        static_cast<double>(cfg.warmup + cfg.duration) / sim::kHour;
    w.threads = cfg.threads;
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fleet_12h", "fleet_6w", "storm_chaos", "service_cluster"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, int threads)
{
    if (name == "fleet_12h") {
        // A contiguous 512-rack slice of the paper fleet: wide and
        // short, well under the full fleet's 11.9 GB peak.
        return traceWorkload(name, paperScale(512, seed, threads));
    }
    if (name == "fleet_6w") {
        auto cfg = paperScale(64, seed, threads);
        cfg.warmup = sim::kWeek;
        cfg.duration = 5 * sim::kWeek;
        cfg.recomputePeriod = sim::kWeek;
        return traceWorkload(name, cfg);
    }
    if (name == "storm_chaos") {
        cluster::TraceSimConfig cfg;
        cfg.racks = 4;
        cfg.serversPerRack = 16;
        cfg.warmup = sim::kDay;
        cfg.duration = sim::kDay;
        cfg.controlStep = 30 * sim::kSecond;
        cfg.recomputePeriod = sim::kDay;
        cfg.templateWindow = sim::kWeek;
        cfg.faults = sim::FaultConfig::standardChaos();
        cfg.ingress.enabled = true;
        cfg.ingress.maxHintAge = sim::kHour;
        cfg.storm = sim::HintStormConfig::standardStorm();
        cfg.threads = threads;
        cfg.seed = seed;
        return traceWorkload(name, cfg);
    }
    if (name == "service_cluster") {
        Workload w;
        w.name = name;
        w.isService = true;
        w.service.seed = seed;
        w.service.threads = 1;
        w.servers = w.service.socialNetServers + w.service.mlServers +
            w.service.spareServers;
        w.serverHours = w.servers *
            static_cast<double>(w.service.duration) / sim::kHour;
        w.threads = 1;
        return w;
    }
    return std::nullopt;
}

} // namespace socbench
