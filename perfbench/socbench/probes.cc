#include "probes.hh"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/fleet_state.hh"
#include "core/budget_hierarchy.hh"
#include "core/goa.hh"
#include "core/hint_ingress.hh"
#include "core/soa.hh"
#include "power/rack.hh"
#include "power/rack_manager.hh"
#include "sim/hint_storm.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "telemetry/time_series.hh"
#include "workload/archetype.hh"
#include "workload/queueing_service.hh"
#include "workload/trace_generator.hh"

namespace socbench
{

using namespace soc;

namespace
{

/** Racks the generation probe streams (the first few of the fleet). */
constexpr int kGenRacks = 4;
/** Extra gOA recomputes timed after the horizon. */
constexpr int kRecomputeReps = 8;
/** Hierarchy recomputes timed in steady state. */
constexpr int kHierarchyReps = 16;
/** Control steps of the ingress probe. */
constexpr int kIngressSteps = 2000;
/** Metrics-triggered overclock request length of the service
 *  cluster's WI agents (their metricsChunk). */
constexpr sim::Tick kServiceRequest = 10 * sim::kMinute;
/** Busy fraction above which a service-cluster VM asks for
 *  overclocking in the rack probe (see probeServiceRack). */
constexpr double kServiceOcBusy = 0.8;

/** Run @p fn inside span @p name; returns its seconds. */
template <typename F>
double
timed(Spans &spans, const char *name, F &&fn)
{
    const int id = spans.open(name);
    fn();
    spans.close(id);
    return spans.seconds(id);
}

/** Heap bytes in use, all arenas (small chunks + mmapped blocks). */
double
heapInUse()
{
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
}

/** The replay's overclock-candidate rule (cluster/trace_sim.cc):
 *  VMs whose archetype peaks over the threshold, except the flat
 *  constant-high and low-idle shapes. */
bool
isCandidate(const workload::VmMix &vm, double threshold)
{
    if (vm.archetype.kind == workload::ShapeKind::ConstantHigh ||
        vm.archetype.kind == workload::ShapeKind::LowIdle) {
        return false;
    }
    return vm.archetype.peakUtil >= threshold;
}

/** One rack's generated inputs, built exactly like the replay's
 *  per-rack build: a mix and a stream per server, in server order,
 *  from the rack's deriveSeed stream. */
struct RackInputs {
    std::vector<std::vector<workload::VmMix>> mixes;
    std::vector<workload::ServerTraceStream> streams;
    std::vector<std::vector<bool>> candidates;
};

sim::Tick
horizon(const cluster::TraceSimConfig &shape)
{
    return shape.warmup + shape.duration;
}

std::size_t
horizonSlots(const cluster::TraceSimConfig &shape)
{
    return static_cast<std::size_t>((horizon(shape) + sim::kSlot - 1) /
                                    sim::kSlot);
}

std::size_t
windowSlots(const cluster::TraceSimConfig &shape)
{
    return shape.streamWindow == 0
        ? horizonSlots(shape)
        : static_cast<std::size_t>(shape.streamWindow / sim::kSlot);
}

RackInputs
buildInputs(const cluster::TraceSimConfig &shape, int rack,
            const power::PowerModel &model)
{
    workload::TraceConfig trace_cfg;
    trace_cfg.end = horizon(shape);
    workload::TraceGenerator gen(
        sim::deriveSeed(shape.seed, static_cast<std::uint64_t>(rack)),
        trace_cfg);
    RackInputs in;
    for (int s = 0; s < shape.serversPerRack; ++s) {
        in.mixes.push_back(gen.randomVmMix(shape.hardware.cores));
        in.streams.push_back(
            gen.serverTraceStream(in.mixes.back(), model));
        std::vector<bool> cand;
        for (const auto &vm : in.mixes.back())
            cand.push_back(isCandidate(vm, shape.ocUtilThreshold));
        in.candidates.push_back(std::move(cand));
    }
    return in;
}

/** Generate the next window of every server into @p fleet. */
void
refill(cluster::FleetState &fleet, RackInputs &in, std::size_t window)
{
    const std::size_t n = fleet.beginWindow(fleet.windowEnd(), window);
    const std::size_t stride = fleet.totalVms();
    for (std::size_t s = 0; s < in.streams.size(); ++s) {
        const std::size_t off = fleet.serverOffset(s);
        in.streams[s].generateQuantized(n, fleet.utilWindow() + off,
                                        fleet.wattsWindow() + off,
                                        stride);
    }
}

/**
 * One rack of sOAs behind a RackManager and a gOA, wired the way both
 * simulators wire them.  Times the sOA ticks, the rack manager tick
 * and the gOA's two-phase recompute (pullProfiles +
 * recomputeWithBudget over a flat usable row, bit-identical to
 * recompute(now)), and the heap the agents hold.
 */
class AgentRack
{
  public:
    AgentRack(const power::PowerModel &model, power::Watts limit,
              const core::GoaConfig &goaConfig)
        : model_(model), rack_(0, limit), manager_(rack_),
          goa_(rack_, model, goaConfig)
    {
    }

    power::Server &addServer() { return rack_.addServer(&model_); }

    /** One sOA per server; heap growth counts from here. */
    void startAgents(const core::SoaConfig &config)
    {
        heapBefore_ = heapInUse();
        for (std::size_t s = 0; s < rack_.serverCount(); ++s) {
            soas_.push_back(std::make_unique<core::ServerOverclockingAgent>(
                rack_.server(s), config, &rack_));
            manager_.addListener(soas_.back().get());
            goa_.addAgent(soas_.back().get());
        }
        goa_.assignEvenSplit();
        usable_.assign(
            static_cast<std::size_t>(sim::kSlotsPerWeek),
            rack_.limitWatts().count() *
                (1.0 - goa_.config().budget.safetyFraction));
    }

    core::ServerOverclockingAgent &soa(std::size_t s) { return *soas_[s]; }
    power::Rack &rack() { return rack_; }
    core::GlobalOverclockingAgent &goa() { return goa_; }

    void recompute(sim::Tick now, Spans &spans)
    {
        pullUs_.push_back(timed(spans, "core.goa.pullProfiles",
                                [&] { goa_.pullProfiles(); }) *
                          1e6);
        splitUs_.push_back(
            timed(spans, "core.goa.recomputeWithBudget",
                  [&] { goa_.recomputeWithBudget(now, usable_); }) *
            1e6);
    }

    /** One control step: every sOA ticks, then the rack manager. */
    void step(sim::Tick now, Spans &spans)
    {
        tickS_ += timed(spans, "core.soa.tick", [&] {
            for (auto &soa : soas_)
                soa->tick(now);
        });
        managerS_ += timed(spans, "power.RackManager.tick",
                           [&] { manager_.tick(now); });
        steps_ += 1.0;
    }

    /** Heap per server the agents grew to over the horizon. */
    double kbPerServer() const
    {
        return (heapInUse() - heapBefore_) / 1024.0 /
            static_cast<double>(soas_.size());
    }

    void report(ProbeResults &out) const
    {
        const double servers = static_cast<double>(soas_.size());
        out.soaTickNs = steps_ > 0.0
            ? tickS_ / (steps_ * servers) * 1e9
            : 0.0;
        out.rackManagerTickNs =
            steps_ > 0.0 ? managerS_ / steps_ * 1e9 : 0.0;
        out.goaPullUs = sim::median(pullUs_);
        out.goaSplitUs = sim::median(splitUs_);
    }

  private:
    const power::PowerModel &model_;
    power::Rack rack_;
    power::RackManager manager_;
    core::GlobalOverclockingAgent goa_;
    std::vector<std::unique_ptr<core::ServerOverclockingAgent>> soas_;
    std::vector<double> usable_;
    std::vector<double> pullUs_;
    std::vector<double> splitUs_;
    double heapBefore_ = 0.0;
    double tickS_ = 0.0;
    double managerS_ = 0.0;
    double steps_ = 0.0;
};

/** Streams the horizon through randomVmMix -> serverTraceStream ->
 *  generateQuantized for the first kGenRacks racks. */
void
probeGeneration(const cluster::TraceSimConfig &shape,
                const power::PowerModel &model, Spans &spans,
                ProbeResults &out)
{
    const int racks = std::min(shape.racks, kGenRacks);
    const std::size_t total = horizonSlots(shape);
    const std::size_t window = windowSlots(shape);
    double seconds = 0.0;
    double samples = 0.0;
    std::vector<std::uint16_t> util;
    std::vector<float> watts;
    for (int r = 0; r < racks; ++r) {
        RackInputs in;
        seconds += timed(spans, "workload.build_streams",
                         [&] { in = buildInputs(shape, r, model); });
        std::vector<std::size_t> offsets;
        std::size_t stride = 0;
        for (const auto &stream : in.streams) {
            offsets.push_back(stride);
            stride += stream.vms();
        }
        util.resize(window * stride);
        watts.resize(window * stride);
        for (std::size_t first = 0; first < total; first += window) {
            const std::size_t n = std::min(window, total - first);
            seconds += timed(spans, "workload.generateQuantized", [&] {
                for (std::size_t s = 0; s < in.streams.size(); ++s)
                    in.streams[s].generateQuantized(
                        n, util.data() + offsets[s],
                        watts.data() + offsets[s], stride);
            });
            samples += static_cast<double>(n * stride);
        }
    }
    out.genNsPerSample = samples > 0.0 ? seconds / samples * 1e9 : 0.0;
}

/**
 * Rack 0 of a trace workload, wired like the replay's direct hint
 * path (FleetState -> Rack -> sOAs + RackManager + gOA), stepped
 * over the whole horizon at the workload's control step.  Times
 * applySlot and the agent layers (AgentRack); the agent heap is read
 * at the end of the horizon.
 */
void
probeTraceRack(const cluster::TraceSimConfig &shape,
               const power::PowerModel &model, Spans &spans,
               ProbeResults &out,
               std::vector<core::ServerProfile> &profiles,
               power::Watts &limit)
{
    RackInputs in;
    timed(spans, "workload.build_streams",
          [&] { in = buildInputs(shape, 0, model); });
    const std::size_t servers = in.streams.size();
    const std::size_t total = horizonSlots(shape);
    const std::size_t window = windowSlots(shape);

    cluster::FleetState fleet(shape.ocUtilThreshold);
    for (std::size_t s = 0; s < servers; ++s)
        fleet.addServer(in.mixes[s].size(), in.candidates[s]);
    fleet.setHorizon(total);

    // Rack limit as the replay sizes it: P99 of the baseline rack
    // power over the horizon, times the limit factor.
    std::vector<double> rack_power(total, 0.0);
    while (fleet.windowEnd() < total) {
        const std::size_t first = fleet.windowEnd();
        timed(spans, "workload.generateQuantized",
              [&] { refill(fleet, in, window); });
        const std::size_t stride = fleet.totalVms();
        for (std::size_t i = 0; first + i < fleet.windowEnd(); ++i) {
            double rack_watts = 0.0;
            for (std::size_t s = 0; s < servers; ++s) {
                double server_watts =
                    model.params().idleWatts.count();
                const std::size_t off = fleet.serverOffset(s);
                for (std::size_t v = 0; v < in.streams[s].vms(); ++v)
                    server_watts += static_cast<double>(
                        fleet.wattsWindow()[i * stride + off + v]);
                rack_watts += server_watts;
            }
            rack_power[first + i] = rack_watts;
        }
    }
    limit = power::Watts{
        telemetry::TimeSeries(0, sim::kSlot, std::move(rack_power))
            .quantile(0.99) *
        shape.limitFactor};
    for (auto &stream : in.streams)
        stream.reset();
    fleet.resetWindows();

    // The replay's gOA and sOA knobs (runTraceSim).
    core::GoaConfig goa_cfg;
    goa_cfg.recomputePeriod = shape.recomputePeriod;
    if (shape.faults.enabled)
        goa_cfg.leaseTtl = 2 * shape.recomputePeriod;
    core::SoaConfig soa_cfg = core::SoaConfig::forPolicy(shape.policy);
    soa_cfg.controlPeriod = shape.controlStep;
    soa_cfg.overclockFraction = 0.25;
    soa_cfg.templateWindow = shape.templateWindow;
    if (shape.ingress.enabled)
        soa_cfg.flapHoldoff = shape.ingress.flapHoldoff;

    AgentRack agents(model, limit, goa_cfg);
    for (std::size_t s = 0; s < servers; ++s) {
        power::Server &server = agents.addServer();
        for (const auto &vm : in.mixes[s])
            server.addGroup(vm.cores, 0.0, power::kTurboMHz, 1);
    }
    agents.startAgents(soa_cfg);

    std::vector<std::uint64_t> active(servers, 0);
    std::size_t last_slot = static_cast<std::size_t>(-1);
    sim::Tick next_recompute = shape.warmup;
    double apply_s = 0.0;
    double slots = 0.0;
    sim::Tick t = 0;
    for (; t < horizon(shape); t += shape.controlStep) {
        if (t >= next_recompute) {
            agents.recompute(t, spans);
            next_recompute += shape.recomputePeriod;
        }
        const auto slot = static_cast<std::size_t>(t / sim::kSlot);
        if (slot != last_slot) {
            while (slot >= fleet.windowEnd()) {
                timed(spans, "workload.generateQuantized", [&] {
                    refill(fleet, in, window);
                    fleet.finalizeWindow();
                });
            }
            apply_s += timed(spans, "cluster.FleetState.applySlot",
                             [&] { fleet.applySlot(agents.rack(), slot); });
            slots += 1.0;
            last_slot = slot;
        }
        // Direct hint path: start wanted grants, stop unwanted ones.
        for (std::size_t s = 0; s < servers; ++s) {
            core::ServerOverclockingAgent &soa = agents.soa(s);
            const std::uint64_t want = fleet.wantMask(s);
            std::uint64_t pending = want | active[s];
            while (pending != 0) {
                const int v = std::countr_zero(pending);
                pending &= pending - 1;
                const auto bit = std::uint64_t{1} << v;
                const bool active_now = soa.isOverclockActive(v);
                if ((want & bit) != 0 && !active_now) {
                    core::OverclockRequest request;
                    request.groupId = v;
                    request.cores =
                        in.mixes[s][static_cast<std::size_t>(v)].cores;
                    request.duration = shape.requestChunk;
                    soa.requestOverclock(request, t);
                    active[s] |= bit;
                } else if ((want & bit) == 0 && active_now) {
                    soa.stopOverclock(v, t);
                    active[s] &= ~bit;
                } else if (!active_now) {
                    active[s] &= ~bit;
                }
            }
        }
        agents.step(t, spans);
    }
    out.soaKbPerServer = agents.kbPerServer();

    // Steady-state recomputes: each preceded by one fresh telemetry
    // slot, so the pull does real incremental work.
    for (int rep = 0; rep < kRecomputeReps; ++rep, t += sim::kSlot) {
        for (std::size_t s = 0; s < servers; ++s)
            agents.soa(s).tick(t);
        agents.recompute(t, spans);
    }
    agents.report(out);
    out.applyNsPerSlot = slots > 0.0 ? apply_s / slots * 1e9 : 0.0;
    profiles = agents.goa().pullProfiles();
}

/** BudgetHierarchy over the workload's rack count, every rack
 *  carrying rack 0's aggregate; each timed recompute follows one
 *  rack's aggregate exchange, the replay's steady state. */
void
probeHierarchy(const cluster::TraceSimConfig &shape,
               const power::PowerModel &model,
               const std::vector<core::ServerProfile> &profiles,
               power::Watts limit, Spans &spans, ProbeResults &out)
{
    core::ProfileAggregator aggregator;
    core::ServerProfile aggregate;
    aggregator.aggregate(profiles.data(), profiles.size(), aggregate);
    core::HierarchyConfig hier_cfg;
    hier_cfg.racksPerRow = shape.racksPerRow;
    core::BudgetHierarchy hierarchy(model, hier_cfg);
    for (int r = 0; r < shape.racks; ++r)
        hierarchy.addRackAggregate(aggregate);
    const power::Watts zone_limit{limit.count() * shape.racks};
    hierarchy.recompute(zone_limit);
    std::vector<double> hier_us;
    for (int rep = 0; rep < kHierarchyReps; ++rep) {
        hierarchy.exchangeRackAggregate(rep % shape.racks, aggregate);
        hier_us.push_back(
            timed(spans, "core.hierarchy.recompute",
                  [&] { hierarchy.recompute(zone_limit); }) *
            1e6);
    }
    out.hierarchyRecomputeUs = sim::median(hier_us);
}

/** The workload's hint storm through its ingress, frames forged
 *  outside the spans. */
void
probeIngress(const cluster::TraceSimConfig &shape, Spans &spans,
             ProbeResults &out)
{
    core::HintIngress ingress(shape.ingress);
    const sim::HintStormGenerator storm(
        shape.storm, shape.seed, /*rack=*/0, shape.serversPerRack,
        /*vmsPerServer=*/16);
    const core::HintIngress::Sink sink =
        [](const core::wire::ParsedHint &) { return true; };

    std::vector<core::wire::Frame> frames;
    double seconds = 0.0;
    double offered = 0.0;
    sim::Tick now = 0;
    for (int step = 0; step < kIngressSteps;
         ++step, now += shape.controlStep) {
        frames.clear();
        for (int s = 0; s < shape.serversPerRack; ++s)
            storm.generate(s, now, [&](const core::wire::Frame &f) {
                frames.push_back(f);
            });
        seconds += timed(spans, "core.ingress.offer_drain", [&] {
            for (const auto &frame : frames)
                ingress.offer(frame, now);
            ingress.drain(now, sink);
        });
        offered += static_cast<double>(frames.size());
    }
    out.ingressNsPerHint = offered > 0.0 ? seconds / offered * 1e9 : 0.0;
}

/**
 * The service cluster's latency-critical deployments, built as
 * runServiceSim builds them (socialNetCatalog params, seed * 977 +
 * deployment, class load fraction of one turbo instance, the
 * valley-peak-valley load profile), one instance each, run on a
 * Simulator over the workload's horizon with its control and poll
 * tasks.  Times event dispatch per executed event and records each
 * deployment's busy fraction at every control step for
 * probeServiceRack.
 */
void
probeServiceEvents(const cluster::ServiceSimConfig &svc, Spans &spans,
                   ProbeResults &out,
                   std::vector<std::vector<double>> &busy)
{
    sim::Simulator simulator;
    const auto catalog = workload::socialNetCatalog();
    std::vector<std::unique_ptr<workload::QueueingService>> services;
    std::vector<double> base_rate;
    for (int i = 0; i < svc.socialNetServers; ++i) {
        const int load_class = (i * 3) / svc.socialNetServers;
        services.push_back(std::make_unique<workload::QueueingService>(
            simulator, catalog[static_cast<std::size_t>(i) %
                               catalog.size()],
            svc.seed * 977 + static_cast<std::uint64_t>(i)));
        const double frac = load_class == 0
            ? svc.lowFrac
            : (load_class == 1 ? svc.medFrac : svc.highFrac);
        base_rate.push_back(
            frac * services.back()->instanceCapacity(power::kTurboMHz));
        services.back()->addInstance();
    }
    simulator.every(svc.controlPeriod, [&](sim::Tick now) {
        const double frac = static_cast<double>(now) /
            static_cast<double>(svc.duration);
        const double phase =
            (frac < 0.25 || frac >= 0.80 ? 0.50 : 1.0) *
            svc.peakMultiplier;
        std::vector<double> row;
        for (std::size_t d = 0; d < services.size(); ++d) {
            services[d]->setArrivalRate(base_rate[d] * phase);
            row.push_back(services[d]->instantUtilization(0));
        }
        busy.push_back(std::move(row));
    });
    simulator.every(svc.pollPeriod, [&](sim::Tick) {
        for (auto &service : services)
            service->drainWindow();
    });
    double seconds = 0.0;
    for (sim::Tick t = svc.pollPeriod; t <= svc.duration;
         t += svc.pollPeriod) {
        seconds += timed(spans, "sim.Simulator.runUntil",
                         [&] { simulator.runUntil(t); });
    }
    const auto events = simulator.queue().executedCount();
    out.eventNs =
        events > 0 ? seconds / static_cast<double>(events) * 1e9 : 0.0;
}

/**
 * The service cluster's first rack (its SocialNet and MLTrain
 * servers) with the service sim's rack limit, sOA and gOA settings,
 * stepped at its control period over its horizon with a gOA
 * recompute every gOA period.  Each SocialNet server carries its
 * deployment's VM at the busy fraction probeServiceEvents recorded
 * (plus the per-VM overhead); each MLTrain server carries the
 * mlTraining archetype with the sim's utilization noise.  The WI
 * agents' latency-driven requests are replaced by a fixed rule: a
 * VM asks for overclocking while it is at least kServiceOcBusy
 * busy.
 */
void
probeServiceRack(const cluster::ServiceSimConfig &svc,
                 const power::PowerModel &model,
                 const std::vector<std::vector<double>> &busy,
                 Spans &spans, ProbeResults &out)
{
    const int social = svc.socialNetServers;
    const int servers = social + svc.mlServers;
    AgentRack agents(model,
                     servers * svc.hardware.tdpWatts * svc.rackLimitFactor,
                     core::GoaConfig{});
    const auto catalog = workload::socialNetCatalog();
    std::vector<int> cores;
    std::vector<power::GroupId> groups;
    for (int n = 0; n < servers; ++n) {
        power::Server &server = agents.addServer();
        cores.push_back(n < social
                            ? catalog[static_cast<std::size_t>(n) %
                                      catalog.size()]
                                  .workersPerVm
                            : svc.mlCoresPerServer);
        groups.push_back(server.addGroup(cores.back(), 0.0,
                                         power::kTurboMHz,
                                         n < social ? 1 : 2));
    }
    core::SoaConfig soa_cfg = core::SoaConfig::forPolicy(svc.soaPolicy);
    soa_cfg.controlPeriod = svc.controlPeriod;
    soa_cfg.overclockFraction =
        svc.overclockFraction * svc.overclockBudgetScale;
    soa_cfg.budgetEpoch =
        std::max<sim::Tick>(svc.duration, 10 * sim::kMinute);
    soa_cfg.templateWindow = svc.templateWindow;
    agents.startAgents(soa_cfg);

    sim::Rng rng(svc.seed);
    std::vector<sim::Rng> noise;
    for (int n = social; n < servers; ++n)
        noise.push_back(rng.split());
    const workload::Archetype ml = workload::mlTraining();

    sim::Tick t = svc.controlPeriod;
    for (std::size_t step = 0; step < busy.size();
         ++step, t += svc.controlPeriod) {
        for (int n = 0; n < servers; ++n) {
            power::Server &server = agents.rack().server(
                static_cast<std::size_t>(n));
            if (n >= social) {
                server.setUtil(
                    groups[n],
                    std::clamp(ml.utilAt(t) +
                                   noise[n - social].normal(0.0, 0.01),
                               0.0, 1.0));
                continue;
            }
            const double b = busy[step][static_cast<std::size_t>(n)];
            server.setUtil(groups[n], svc.vmOverheadUtil +
                                          (1.0 - svc.vmOverheadUtil) * b);
            core::ServerOverclockingAgent &soa =
                agents.soa(static_cast<std::size_t>(n));
            const bool active = soa.isOverclockActive(groups[n]);
            if (b >= kServiceOcBusy && !active) {
                core::OverclockRequest request;
                request.groupId = groups[n];
                request.cores = cores[n];
                request.duration = kServiceRequest;
                soa.requestOverclock(request, t);
            } else if (b < kServiceOcBusy && active) {
                soa.stopOverclock(groups[n], t);
            }
        }
        agents.step(t, spans);
        if (t % svc.goaPeriod == 0)
            agents.recompute(t, spans);
    }
    out.soaKbPerServer = agents.kbPerServer();
    agents.report(out);
}

} // namespace

ProbeResults
runProbes(const Workload &w, Spans &spans)
{
    if (!spans.enabled())
        throw std::logic_error("probes need an enabled span recorder");
    ProbeResults out;
    if (w.isService) {
        const power::PowerModel model(w.service.hardware);
        std::vector<std::vector<double>> busy;
        {
            Spans::Scope scope(spans, "probe.events");
            probeServiceEvents(w.service, spans, out, busy);
        }
        Spans::Scope scope(spans, "probe.rack");
        probeServiceRack(w.service, model, busy, spans, out);
        return out;
    }
    const auto &shape = w.trace;
    const power::PowerModel model(shape.hardware);
    std::vector<core::ServerProfile> profiles;
    power::Watts limit{0.0};
    {
        Spans::Scope scope(spans, "probe.rack");
        probeTraceRack(shape, model, spans, out, profiles, limit);
    }
    if (shape.budgetPath == cluster::BudgetPath::HierarchyZone) {
        Spans::Scope scope(spans, "probe.hierarchy");
        probeHierarchy(shape, model, profiles, limit, spans, out);
    }
    {
        Spans::Scope scope(spans, "probe.generation");
        probeGeneration(shape, model, spans, out);
    }
    if (shape.ingress.enabled) {
        Spans::Scope scope(spans, "probe.ingress");
        probeIngress(shape, spans, out);
    }
    return out;
}

} // namespace socbench
