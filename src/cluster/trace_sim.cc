#include "cluster/trace_sim.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/fleet_state.hh"
#include "cluster/rack_control.hh"
#include "core/budget_hierarchy.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/thread_pool.hh"
#include "workload/trace_generator.hh"

namespace soc
{
namespace cluster
{

double
TraceSimConfig::tierLimitFactor(PowerTier tier)
{
    // Limit relative to the baseline P99 rack draw.  High-power
    // clusters run close to their limit; low-power clusters have
    // ample headroom (Fig. 5: many racks under 73% utilization).
    switch (tier) {
      case PowerTier::High: return 1.07;
      case PowerTier::Medium: return 1.17;
      case PowerTier::Low: break;
    }
    return 1.45;
}

void
TraceSimConfig::validate() const
{
    auto fail = [](const std::string &what) {
        throw std::invalid_argument("TraceSimConfig: " + what);
    };
    if (racks < 1)
        fail("racks must be >= 1 (got " + std::to_string(racks) +
             ")");
    if (serversPerRack < 1) {
        fail("serversPerRack must be >= 1 (got " +
             std::to_string(serversPerRack) + ")");
    }
    if (!(std::isfinite(limitFactor) && limitFactor > 0.0)) {
        fail("limitFactor must be finite and > 0 (got " +
             std::to_string(limitFactor) + ")");
    }
    if (!(ocUtilThreshold >= 0.0 && ocUtilThreshold <= 1.0)) {
        fail("ocUtilThreshold must be in [0, 1] (got " +
             std::to_string(ocUtilThreshold) + ")");
    }
    if (requestChunk <= 0)
        fail("requestChunk must be > 0");
    if (warmup < 0)
        fail("warmup must be non-negative");
    if (duration < 0)
        fail("duration must be non-negative");
    if (warmup + duration <= 0)
        fail("warmup + duration must be > 0 (nothing to simulate)");
    if (controlStep <= 0)
        fail("controlStep must be > 0");
    if (recomputePeriod <= 0)
        fail("recomputePeriod must be > 0");
    if (streamWindow < 0 ||
        (streamWindow > 0 && streamWindow % sim::kSlot != 0)) {
        fail("streamWindow must be 0 or a positive multiple of "
             "the telemetry slot");
    }
    if (racksPerRow < 1) {
        fail("racksPerRow must be >= 1 (got " +
             std::to_string(racksPerRow) + ")");
    }
    // randomVmMix places VMs of at least 2 cores, and the replay
    // tracks each server's VMs in 64-bit masks.
    const int max_cores =
        2 * static_cast<int>(FleetState::kMaxVmsPerServer);
    if (hardware.cores > max_cores) {
        fail("hardware.cores must be <= " +
             std::to_string(max_cores) + " (got " +
             std::to_string(hardware.cores) +
             "): a server could host more VMs than its " +
             std::to_string(FleetState::kMaxVmsPerServer) +
             "-bit VM masks hold");
    }
    if (budgetPath == BudgetPath::HierarchyZone && faults.enabled) {
        fail("budgetPath = HierarchyZone does not support fault "
             "injection (the zone recompute has no outage-retry "
             "path); use budgetPath = PerRack with faults");
    }
    validateControlPlane(templateWindow, faults, ingress, storm, fail);
}

namespace
{

/** How long after a discrete fault a cap event is still blamed on
 *  it (crash fallout: revoked grants, cold telemetry). */
constexpr sim::Tick kFaultAttribution = sim::kHour;

/**
 * Metrics one rack accumulates over its control loop.  Every rack
 * owns one instance, so the loops can run on different threads; the
 * instances are merged in rack order afterwards, which makes the
 * result independent of how racks were scheduled over threads.
 */
struct RackOutcome {
    std::uint64_t capEvents = 0;
    std::uint64_t cappedTicks = 0;
    std::uint64_t warnings = 0;
    std::uint64_t requests = 0;
    std::uint64_t wantSteps = 0;
    std::uint64_t successSteps = 0;
    power::Joules energyJoules{0.0};
    sim::OnlineStats penalty;
    sim::OnlineStats rackUtil;
    sim::OnlineStats perf;
    sim::FaultStats faults;
    std::uint64_t capEventsFaultAttributed = 0;
    std::uint64_t staleLeaseTicks = 0;
    std::uint64_t recoveries = 0;
    sim::Tick recoverySum = 0;
    core::IngressStats ingress;
    std::uint64_t flapDenied = 0;
    /** Wall-clock accounting (not simulation state). */
    double genSeconds = 0.0;
    double simSeconds = 0.0;
};

bool
isCandidate(const workload::VmMix &vm, double threshold)
{
    if (vm.archetype.kind == workload::ShapeKind::ConstantHigh ||
        vm.archetype.kind == workload::ShapeKind::LowIdle) {
        return false;
    }
    return vm.archetype.peakUtil >= threshold;
}

// Wall-clock here measures *our own* speed (gen/sim seconds in the
// result), never simulation time: soclint:allow(DET-001)
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * One rack's build state plus its resumable control loop around its
 * RackControl (the rack's gOA, sOAs, manager and fault plan).
 *
 * The rack's control loop is resumable so it can pause at zone
 * recompute boundaries (see runReplay).  A PerRack run has no
 * boundaries: each rack runs build() + advance(end) + finish() in
 * one go, built and freed inside its chunk, and recomputes its own
 * budgets inside advance().  A HierarchyZone run keeps every rack
 * resident between boundaries, and its budgets come from the zone
 * (boundaryCollect + boundaryFinishZone).
 *
 * Traces are streamed: build() creates one ServerTraceStream per
 * server and derives the rack limit from a first streaming pass over
 * the full horizon (bit-identical to the materialized
 * rackPower-quantile path).  When that pass fit in one window
 * (streamWindow 0 or >= the horizon) the window is kept for the
 * replay as is, so every sample is generated once.  Otherwise the
 * streams rewind and replay regenerates the samples window by window
 * into the FleetState buffers, so a rack holds O(VMs x streamWindow)
 * samples instead of the whole horizon.
 */
class RackRuntime
{
  public:
    RackRuntime(const TraceSimConfig &config,
                const power::PowerModel &model,
                const core::SoaConfig &soaCfg, int rackIndex,
                RackOutcome &out)
        : config_(config),
          model_(model),
          soaCfg_(soaCfg),
          rackIndex_(rackIndex),
          out_(out),
          end_(config.warmup + config.duration),
          dtS_(static_cast<double>(config.controlStep) /
               sim::kSecond)
    {
    }

    /** Generate streams, size the limit, wire servers/agents. */
    void build();

    /** Run control steps while t < @p until. */
    void advance(sim::Tick until);

    /**
     * First half of a lockstep boundary step at time @p t (== the
     * rack's current step, asserted): step prolog, then pull this
     * rack's profiles and reduce them into the aggregate slot via
     * @p agg (shared per worker chunk — scratch only).
     */
    void boundaryCollect(sim::Tick t, core::ProfileAggregator &agg);

    /**
     * Second half of a lockstep boundary step: fetch this rack's
     * budget from @p hier (read-only — safe concurrently), push it
     * through the gOA, then run the remainder of the step.
     * @p usable is per-worker scratch for the budget's day rows.
     */
    void boundaryFinishZone(const core::BudgetHierarchy &hier,
                            std::vector<double> &usable);

    /** Tail accounting into the outcome (end of the horizon). */
    void finish();

    power::Watts limitWatts() const { return control_->rack().limitWatts(); }

    /** Exchange slot for hier.exchangeRackAggregate. */
    core::ServerProfile &aggregateSlot() { return aggregate_; }

  private:
    void stepProlog(sim::Tick t);
    void maybeRecompute(sim::Tick t);
    void stepMain(sim::Tick t);
    /**
     * The per-VM hint walk of server @p s this step: every VM that
     * wants to overclock this slot, or may still hold a grant, is
     * checked against its sOA; a VM that wants but holds no grant
     * goes to @p start(v, request), one that holds a grant it no
     * longer wants goes to @p stop(v, group).  Eval accounting
     * follows each VM's dispatch.
     */
    template <typename Start, typename Stop>
    void walkServer(std::size_t s, bool in_eval, Start &&start,
                    Stop &&stop);
    /** Wire header of the next hint from server @p s, VM @p v. */
    core::wire::HintHeader nextHeader(std::size_t s, std::size_t v,
                                      sim::Tick t);
    /** Stream windows forward until @p slot is materialized. */
    void ensureSlot(std::size_t slot);
    /** Generate the next stream window; returns its slot count. */
    std::size_t generateWindow();

    const TraceSimConfig &config_;
    const power::PowerModel &model_;
    const core::SoaConfig &soaCfg_;
    const int rackIndex_;
    RackOutcome &out_;
    const sim::Tick end_;
    const double dtS_;

    // Build state.
    std::vector<std::vector<workload::VmMix>> mixes_;
    std::vector<workload::ServerTraceStream> streams_;
    /** This rack's control plane (rack_control.hh). */
    std::unique_ptr<RackControl> control_;
    /** Windowed SoA replay state over the streams. */
    std::unique_ptr<FleetState> fleet_;
    /** Bounded hint queue (null when the ingress is disabled). */
    std::unique_ptr<core::HintIngress> ingress_;
    /** Deterministic adversarial frame source (inert when off). */
    sim::HintStormGenerator storm_;
    /** seq[s][v]: next wire sequence number for server s, VM v. */
    std::vector<std::vector<std::uint64_t>> seq_;

    std::size_t slotsTotal_ = 0;
    std::size_t windowSlots_ = 0;

    // Loop state (resumable across advance/boundary calls).
    sim::Tick t_ = 0;
    sim::Tick nextRecompute_ = 0;
    /** Counters at the end of warm-up (metrics cover evaluation). */
    power::RackManagerStats warmupStats_;
    std::uint64_t reqBase_ = 0;
    /** First recompute time missed to the current outage (-1 when
     *  the gOA is reachable). */
    sim::Tick outageFirstMissed_ = -1;
    /** Per-server crash time awaiting a fresh accepted budget. */
    std::vector<sim::Tick> crashSince_;
    /** Cap events up to here are blamed on a discrete fault. */
    sim::Tick faultAttributionUntil_ = -1;
    /** Last telemetry slot pushed into the servers. */
    std::size_t lastSlot_ = static_cast<std::size_t>(-1);
    /** Per-server superset of VMs holding an active grant. */
    std::vector<std::uint64_t> activeMask_;
    /** This rack's aggregated profile (HierarchyZone exchange
     *  slot). */
    core::ServerProfile aggregate_;
    /** Refill seconds inside the current timed sim method, so they
     *  are booked as generation, not replay. */
    double pendingRefillS_ = 0.0;
};

void
RackRuntime::build()
{
    const auto t0 = Clock::now();

    workload::TraceConfig trace_cfg;
    trace_cfg.end = end_;
    // Per-rack stream: adding or reordering racks never perturbs
    // the draws of the others, and racks can generate in parallel.
    workload::TraceGenerator gen(
        sim::deriveSeed(config_.seed,
                        static_cast<std::uint64_t>(rackIndex_)),
        trace_cfg);

    // One mix + stream per server, interleaved exactly like the
    // materialized serverTrace path consumed the generator, so the
    // streamed samples are bit-identical to the former
    // generate-everything-up-front flow.
    fleet_ = std::make_unique<FleetState>(config_.ocUtilThreshold);
    for (int s = 0; s < config_.serversPerRack; ++s) {
        mixes_.push_back(gen.randomVmMix(config_.hardware.cores));
        streams_.push_back(
            gen.serverTraceStream(mixes_.back(), model_));
        std::vector<bool> candidates;
        candidates.reserve(mixes_.back().size());
        for (const auto &vm : mixes_.back())
            candidates.push_back(
                isCandidate(vm, config_.ocUtilThreshold));
        fleet_->addServer(mixes_.back().size(), candidates);
    }

    slotsTotal_ = static_cast<std::size_t>(
        (end_ + sim::kSlot - 1) / sim::kSlot);
    windowSlots_ = config_.streamWindow == 0
        ? slotsTotal_
        : static_cast<std::size_t>(config_.streamWindow /
                                   sim::kSlot);
    fleet_->setHorizon(slotsTotal_);

    // Limit pass: stream the whole horizon once to derive the rack
    // limit from the baseline power profile, accumulating the rack
    // power series in the same order TimeSeries::sum reduced the
    // materialized per-server traces (servers ascending per slot).
    // The summands are the compact columns' float turbo-watts
    // hints, so the P99 limit is window-size and thread-count
    // invariant (the per-sample quantization is), though it differs
    // from the retired double-column path in the last float bits.
    const std::size_t stride = fleet_->totalVms();
    std::vector<double> rack_power_values(slotsTotal_, 0.0);
    while (fleet_->windowEnd() < slotsTotal_) {
        const std::size_t first = fleet_->windowEnd();
        const std::size_t n = generateWindow();
        const float *watts = fleet_->wattsWindow();
        for (std::size_t i = 0; i < n; ++i) {
            const float *wrow = watts + i * stride;
            power::Watts rack_watts{0.0};
            for (std::size_t s = 0; s < streams_.size(); ++s) {
                power::Watts server_watts =
                    model_.params().idleWatts;
                const std::size_t off = fleet_->serverOffset(s);
                const std::size_t vms = streams_[s].vms();
                for (std::size_t v = 0; v < vms; ++v)
                    server_watts += power::Watts{
                        static_cast<double>(wrow[off + v])};
                rack_watts += server_watts;
            }
            rack_power_values[first + i] = rack_watts.count();
        }
    }
    const telemetry::TimeSeries rack_power(
        0, sim::kSlot, std::move(rack_power_values));
    const power::Watts limit{rack_power.quantile(0.99) *
                             config_.limitFactor};

    if (windowSlots_ >= slotsTotal_) {
        // The pass filled one window over the whole horizon: keep
        // it for the replay, which then never refills.
        fleet_->finalizeWindow();
    } else {
        // Rewind for replay: the same windows stream again on
        // demand.
        for (auto &stream : streams_)
            stream.reset();
        fleet_->resetWindows();
    }

    control_ = std::make_unique<RackControl>(
        rackIndex_, limit, model_, soaCfg_, config_.faults,
        config_.seed, config_.serversPerRack, end_,
        config_.recomputePeriod);

    // VM v of a server is its core group v: the fleet bitmasks, the
    // hint walk and the wire headers rely on that identity.
    for (const auto &mix : mixes_) {
        power::Server &server = control_->addServer().server();
        for (std::size_t v = 0; v < mix.size(); ++v) {
            [[maybe_unused]] const power::GroupId g = server.addGroup(
                mix[v].cores, 0.0, power::kTurboMHz, /*priority=*/1);
            assert(g == static_cast<power::GroupId>(v));
        }
    }
    control_->goa().assignEvenSplit();

    nextRecompute_ = config_.warmup;
    crashSince_.assign(control_->soaCount(), -1);
    activeMask_.assign(control_->soaCount(), 0);

    if (config_.ingress.enabled) {
        ingress_ =
            std::make_unique<core::HintIngress>(config_.ingress);
        seq_.resize(mixes_.size());
        std::size_t max_vms = 1;
        for (std::size_t s = 0; s < mixes_.size(); ++s) {
            seq_[s].assign(mixes_[s].size(), 0);
            max_vms = std::max(max_vms, mixes_[s].size());
        }
        if (config_.storm.enabled) {
            storm_ = sim::HintStormGenerator(
                config_.storm, config_.seed,
                static_cast<std::uint64_t>(rackIndex_),
                config_.serversPerRack, static_cast<int>(max_vms));
        }
    }

    out_.genSeconds += secondsSince(t0);
}

std::size_t
RackRuntime::generateWindow()
{
    const std::size_t n =
        fleet_->beginWindow(fleet_->windowEnd(), windowSlots_);
    const std::size_t stride = fleet_->totalVms();
    std::uint16_t *util = fleet_->utilWindow();
    float *watts = fleet_->wattsWindow();
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        const std::size_t off = fleet_->serverOffset(s);
        streams_[s].generateQuantized(n, util + off, watts + off,
                                      stride);
    }
    return n;
}

void
RackRuntime::ensureSlot(std::size_t slot)
{
    while (slot >= fleet_->windowEnd()) {
        const auto t0 = Clock::now();
        generateWindow();
        fleet_->finalizeWindow();
        const double spent = secondsSince(t0);
        out_.genSeconds += spent;
        pendingRefillS_ += spent;
    }
}

void
RackRuntime::stepProlog(sim::Tick t)
{
    if (t == config_.warmup) {
        // Snapshot warm-up counters so metrics cover only the
        // evaluation window.
        warmupStats_ = control_->manager().stats();
        for (std::size_t s = 0; s < control_->soaCount(); ++s)
            reqBase_ += control_->soa(s).stats().requests;
    }

    // Scheduled sOA crash-restarts due by now.
    control_->applyCrashes(t, [this](std::size_t s, sim::Tick now) {
        if (crashSince_[s] < 0)
            crashSince_[s] = now;
        faultAttributionUntil_ = std::max(faultAttributionUntil_,
                                          now + kFaultAttribution);
    });
}

void
RackRuntime::maybeRecompute(sim::Tick t)
{
    if (t < nextRecompute_)
        return;
    if (!control_->recompute(t)) {
        // gOA outage: the recompute is skipped and retried every
        // step; sOAs keep enforcing their last budgets, decaying
        // once the lease goes stale (§III-Q5).
        if (outageFirstMissed_ < 0)
            outageFirstMissed_ = t;
        faultAttributionUntil_ = std::max(
            faultAttributionUntil_, t + kFaultAttribution);
        nextRecompute_ = t + config_.controlStep;
        return;
    }
    if (outageFirstMissed_ >= 0) {
        out_.recoverySum += t - outageFirstMissed_;
        ++out_.recoveries;
        outageFirstMissed_ = -1;
    }
    nextRecompute_ += config_.recomputePeriod;
}

// soclint:hot-begin(PERF-001) — the per-VM hint walk of every
// control step (see stepMain); runs inline on the step, no heap.
template <typename Start, typename Stop>
void
RackRuntime::walkServer(std::size_t s, bool in_eval, Start &&start,
                        Stop &&stop)
{
    power::Server &server = control_->rack().server(s);
    const auto &soa = control_->soa(s);
    const auto &mix = mixes_[s];
    // Only VMs that want to overclock this slot, or that may still
    // hold an active grant, need per-step processing; for everyone
    // else the per-VM walk is a no-op.  activeMask_ is a
    // conservative superset of the truly active grants (bits are
    // set on a start, cleared when a processed VM turns out
    // inactive), so no grant can be missed by the union.
    const std::uint64_t want_mask = fleet_->wantMask(s);
    std::uint64_t pending = want_mask | activeMask_[s];
    while (pending != 0) {
        const int v = std::countr_zero(pending);
        pending &= pending - 1;
        const auto bit = std::uint64_t{1} << v;
        const auto vi = static_cast<std::size_t>(v);
        const auto g = static_cast<power::GroupId>(v);
        const bool want = (want_mask & bit) != 0;
        const bool active = soa.isOverclockActive(g);
        if (want && !active) {
            core::OverclockRequest request;
            request.groupId = g;
            request.cores = mix[vi].cores;
            request.trigger = core::TriggerKind::Metrics;
            request.duration = config_.requestChunk;
            request.priority = 1;
            start(vi, request);
            activeMask_[s] |= bit;
        } else if (!want && active) {
            stop(vi, g);
            activeMask_[s] &= ~bit;
        } else if (!active) {
            activeMask_[s] &= ~bit;
        }

        if (in_eval && want) {
            ++out_.wantSteps;
            const auto *group = server.group(g);
            const power::FreqMHz eff = group != nullptr
                ? group->effectiveMHz()
                : power::kTurboMHz;
            out_.perf.add(eff / power::kTurboMHz);
            if (group != nullptr && group->overclocked())
                ++out_.successSteps;
        }
    }
}

core::wire::HintHeader
RackRuntime::nextHeader(std::size_t s, std::size_t v, sim::Tick t)
{
    core::wire::HintHeader hdr;
    hdr.server = static_cast<int>(s);
    hdr.vmId = static_cast<power::GroupId>(v);
    hdr.issuedAt = t;
    hdr.seq = seq_[s][v]++;
    return hdr;
}
// soclint:hot-end(PERF-001)

void
RackRuntime::stepMain(sim::Tick t)
{
    // soclint:hot-begin(PERF-001) — the replay inner loop: runs
    // once per control step per rack (millions of times at paper
    // scale); window refills are the only allocation-bearing calls
    // and amortize per streamWindow, inside ensureSlot.

    RackControl &ctl = *control_;
    power::Rack &rack = ctl.rack();
    const std::size_t servers = ctl.soaCount();

    // Deliver queued budget pushes whose flight time is up.
    ctl.deliverDue(t);

    // A crashed sOA has recovered once it holds a budget accepted
    // after the crash.
    if (ctl.plan().enabled()) {
        for (std::size_t s = 0; s < servers; ++s) {
            if (crashSince_[s] < 0)
                continue;
            if (ctl.soa(s).lastAssignmentAt() >= crashSince_[s]) {
                out_.recoverySum += t - crashSince_[s];
                ++out_.recoveries;
                crashSince_[s] = -1;
            }
        }
    }

    // Utilization is slot-constant (5-minute telemetry), so the SoA
    // gather — batch util/turbo-watts push plus want-mask rebuild —
    // runs only when the slot rolls over, not every control step.
    // The stream windows are generated to cover [0, warmup +
    // duration), so the slot is always coverable; a short stream
    // trips the FleetState window assert instead of silently
    // replaying the final sample (see TimeSeries::atTime policy).
    const auto slot = static_cast<std::size_t>(t / sim::kSlot);
    if (slot != lastSlot_) {
        ensureSlot(slot);
        fleet_->applySlot(rack, slot);
        lastSlot_ = slot;
    }

    const bool in_eval = t >= config_.warmup;
    if (ingress_) {
        // Ingress path (DESIGN.md §12), three phases per step.
        //
        // Phase 1 — serialize: forge this server's storm frames,
        // then walk its VMs, offering each start/stop hint to the
        // bounded queue as a wire frame.  activeMask_ is updated at
        // *offer* time, which keeps it the documented conservative
        // superset: if a start hint is dropped, the VM still wants
        // next step and re-offers; a stale bit is cleared by the
        // walk's !active branch.
        for (std::size_t s = 0; s < servers; ++s) {
            if (storm_.enabled()) {
                storm_.generate(
                    static_cast<int>(s), t,
                    [&](const core::wire::Frame &frame) {
                        ingress_->offer(frame, t);
                    });
            }
            walkServer(
                s, in_eval,
                [&](std::size_t v,
                    const core::OverclockRequest &request) {
                    ingress_->offer(
                        core::wire::encodeOverclockRequest(
                            nextHeader(s, v, t), request),
                        t);
                },
                [&](std::size_t v, power::GroupId) {
                    ingress_->offer(core::wire::encodeStopRequest(
                                        nextHeader(s, v, t)),
                                    t);
                });
        }

        // Phase 2 — one batched drain dispatches the surviving
        // hints into the agents.  The sink bounds-checks the
        // addressed server/group (a forged frame may name
        // anything); hints it cannot place are sink drops.
        ingress_->drain(
            t, [&](const core::wire::ParsedHint &hint) {
                if (hint.server < 0 ||
                    hint.server >= static_cast<int>(servers))
                    return false;
                const auto s = static_cast<std::size_t>(hint.server);
                if (hint.vmId < 0 ||
                    hint.vmId >=
                        static_cast<std::int32_t>(mixes_[s].size()))
                    return false;
                switch (hint.kind) {
                case core::wire::HintKind::OverclockRequest:
                    ctl.soa(s).requestOverclock(hint.request, t);
                    return true;
                case core::wire::HintKind::StopRequest:
                    ctl.soa(s).stopOverclock(hint.vmId, t);
                    return true;
                default:
                    // Metrics/schedule/exhaustion hints have no
                    // consumer in the trace sim (no WI layer);
                    // counted as sink drops, not crashes.
                    return false;
                }
            });

        // Phase 3 — control ticks run after the drain so every sOA
        // sees this step's surviving hints.
        for (std::size_t s = 0; s < servers; ++s)
            ctl.soa(s).tick(t);
    } else {
        // Direct path: each server's hints call its sOA at once,
        // and the sOA ticks right after its own server's walk.
        for (std::size_t s = 0; s < servers; ++s) {
            auto &soa = ctl.soa(s);
            walkServer(
                s, in_eval,
                [&](std::size_t,
                    const core::OverclockRequest &request) {
                    soa.requestOverclock(request, t);
                },
                [&](std::size_t, power::GroupId g) {
                    soa.stopOverclock(g, t);
                });
            soa.tick(t);
        }
    }
    power::RackManager &manager = ctl.manager();
    const std::uint64_t cap_before = manager.stats().capEvents;
    manager.tick(t);

    if (in_eval && ctl.plan().enabled()) {
        const std::uint64_t cap_delta =
            manager.stats().capEvents - cap_before;
        if (cap_delta > 0) {
            bool attributed = t <= faultAttributionUntil_ ||
                ctl.plan().goaDown(t);
            for (std::size_t s = 0; !attributed && s < servers; ++s)
                attributed = ctl.soa(s).leaseStale(t);
            if (attributed)
                out_.capEventsFaultAttributed += cap_delta;
        }
    }

    if (in_eval) {
        out_.rackUtil.add(rack.utilization());
        out_.energyJoules +=
            power::energyOver(rack.powerWatts(), dtS_);
        if (manager.capping()) {
            double penalty = 0.0;
            int affected = 0;
            for (const auto &server : rack.servers()) {
                const int cores = server->cappedNonOverclockCores();
                penalty += server->cappingPenalty() * cores;
                affected += cores;
            }
            if (affected > 0)
                out_.penalty.add(penalty / affected);
        }
    }
    // soclint:hot-end(PERF-001)
}

void
RackRuntime::advance(sim::Tick until)
{
    const auto t0 = Clock::now();
    pendingRefillS_ = 0.0;
    for (; t_ < until; t_ += config_.controlStep) {
        stepProlog(t_);
        if (config_.budgetPath == BudgetPath::PerRack)
            maybeRecompute(t_);
        stepMain(t_);
    }
    out_.simSeconds += secondsSince(t0) - pendingRefillS_;
}

void
RackRuntime::boundaryCollect(sim::Tick t,
                             core::ProfileAggregator &agg)
{
    assert(t == t_ && "lockstep boundary out of phase");
    assert(config_.budgetPath == BudgetPath::HierarchyZone);
    const auto t0 = Clock::now();
    pendingRefillS_ = 0.0;
    stepProlog(t);
    const auto &profiles = control_->goa().pullProfiles();
    agg.aggregate(profiles.data(), profiles.size(), aggregate_);
    out_.simSeconds += secondsSince(t0) - pendingRefillS_;
}

void
RackRuntime::boundaryFinishZone(const core::BudgetHierarchy &hier,
                                std::vector<double> &usable)
{
    const auto t0 = Clock::now();
    pendingRefillS_ = 0.0;
    const core::ProfileTemplate &budget =
        hier.rackBudget(rackIndex_);
    usable.resize(core::ProfileTemplate::kDayRowSlots);
    budget.fillDayRows(usable.data());
    control_->goa().recomputeWithDayRows(t_, usable.data());
    stepMain(t_);
    t_ += config_.controlStep;
    out_.simSeconds += secondsSince(t0) - pendingRefillS_;
}

void
RackRuntime::finish()
{
    const auto t0 = Clock::now();
    RackControl &ctl = *control_;
    const power::RackManagerStats &stats = ctl.manager().stats();
    out_.capEvents = stats.capEvents - warmupStats_.capEvents;
    out_.cappedTicks = stats.cappedTicks - warmupStats_.cappedTicks;
    out_.warnings = stats.warnings - warmupStats_.warnings;
    // Stale-lease ticks and flap denials stay zero without faults
    // (no lease) and without the ingress (no holdoff).
    for (std::size_t s = 0; s < ctl.soaCount(); ++s) {
        const core::SoaStats &soa = ctl.soa(s).stats();
        out_.requests += soa.requests;
        out_.staleLeaseTicks += soa.staleLeaseTicks;
        out_.flapDenied += soa.flapDenied;
    }
    out_.requests -= reqBase_;
    ctl.harvestFaults(end_, out_.faults);
    if (ingress_)
        out_.ingress.merge(ingress_->stats());
    out_.simSeconds += secondsSince(t0);
}

/** Merge per-rack outcomes in rack order: deterministic regardless
 *  of how racks were scheduled over threads. */
TraceSimResult
mergeOutcomes(const std::vector<RackOutcome> &outcomes)
{
    TraceSimResult result;
    sim::OnlineStats penalty_stats;
    sim::OnlineStats rack_util_stats;
    sim::OnlineStats perf_stats;
    sim::Tick recovery_sum = 0;
    for (const auto &out : outcomes) {
        result.capEvents += out.capEvents;
        result.cappedTicks += out.cappedTicks;
        result.warnings += out.warnings;
        result.requests += out.requests;
        result.wantSteps += out.wantSteps;
        result.successSteps += out.successSteps;
        result.energyJoules += out.energyJoules;
        penalty_stats.merge(out.penalty);
        rack_util_stats.merge(out.rackUtil);
        perf_stats.merge(out.perf);
        result.faults.merge(out.faults);
        result.capEventsFaultAttributed +=
            out.capEventsFaultAttributed;
        result.staleLeaseTicks += out.staleLeaseTicks;
        result.recoveries += out.recoveries;
        recovery_sum += out.recoverySum;
        result.ingress.merge(out.ingress);
        result.flapDenied += out.flapDenied;
        result.genSeconds += out.genSeconds;
        result.simSeconds += out.simSeconds;
    }
    result.meanRecoveryS = result.recoveries > 0
        ? static_cast<double>(recovery_sum) /
            static_cast<double>(result.recoveries) / sim::kSecond
        : 0.0;
    result.successRate = result.wantSteps > 0
        ? static_cast<double>(result.successSteps) /
            static_cast<double>(result.wantSteps)
        : 1.0;
    result.cappingPenalty = penalty_stats.mean();
    result.normPerformance =
        perf_stats.count() > 0 ? perf_stats.mean() : 1.0;
    result.meanRackUtil = rack_util_stats.mean();
    return result;
}

/** Chunk grain: contiguous rack ranges off the atomic cursor,
 *  sized so each thread claims a few chunks. */
std::size_t
rackGrain(std::size_t n_racks, int threads)
{
    return std::clamp<std::size_t>(
        n_racks / (4 * static_cast<std::size_t>(threads)), 1, 16);
}

/**
 * The replay runner.  Racks advance in parallel between zone
 * recompute boundaries; each boundary runs three phases — parallel
 * advance + profile pull + per-rack aggregation, the *serial* zone
 * recompute (aggregate exchange in rack order + dirty-tracked
 * hierarchy re-split, timed as hierSeconds), and the parallel
 * budget push + boundary step — and a last parallel phase runs
 * every rack to the end, finishes and frees it.
 *
 * A rack is built in the first phase that touches it.  A PerRack
 * run has no boundaries (each gOA recomputes its own rack inside
 * advance), so its one phase builds, runs, finishes and frees each
 * rack inside its chunk: memory stays O(racks in flight x
 * streamWindow), not O(fleet x horizon) — what makes the 7.1k-rack
 * runs of EXPERIMENTS.md feasible.  Every phase writes only
 * rack-owned state (the hierarchy is written solely by the serial
 * phase) and outcomes live in per-rack slots merged in rack order,
 * so neither the chunk grain nor the thread count can affect
 * results.
 */
TraceSimResult
runReplay(const TraceSimConfig &config,
          const power::PowerModel &model,
          const core::SoaConfig &soa_cfg)
{
    const std::size_t n_racks =
        static_cast<std::size_t>(std::max(0, config.racks));
    const int threads = std::min<int>(
        sim::ThreadPool::resolveThreads(config.threads),
        std::max<int>(1, config.racks));
    sim::ThreadPool pool(threads);
    const std::size_t grain = rackGrain(n_racks, threads);

    std::vector<RackOutcome> outcomes(n_racks);
    std::vector<std::unique_ptr<RackRuntime>> runtimes(n_racks);
    auto runtime = [&](std::size_t r) -> RackRuntime & {
        if (!runtimes[r]) {
            runtimes[r] = std::make_unique<RackRuntime>(
                config, model, soa_cfg, static_cast<int>(r),
                outcomes[r]);
            runtimes[r]->build();
        }
        return *runtimes[r];
    };

    core::HierarchyConfig hier_cfg;
    hier_cfg.racksPerRow = config.racksPerRow;
    core::BudgetHierarchy hierarchy(model, hier_cfg);
    for (std::size_t r = 0; r < n_racks; ++r)
        hierarchy.addRackAggregate(core::ServerProfile{});

    const sim::Tick end = config.warmup + config.duration;
    const sim::Tick cs = config.controlStep;
    // The zone recompute schedule every rack shares: due times
    // start at warmup and advance by recomputePeriod per executed
    // recompute, executing at the first control step at/after the
    // due time — exactly the per-rack `t >= next_recompute`
    // cadence.  PerRack runs have no zone boundaries.
    const bool zone = config.budgetPath == BudgetPath::HierarchyZone;
    sim::Tick sched = config.warmup;
    sim::Tick prev_boundary = -cs;
    power::Watts zone_limit{0.0};
    double hier_seconds = 0.0;
    std::uint64_t hier_recomputes = 0;
    while (zone) {
        const sim::Tick due_step = ((sched + cs - 1) / cs) * cs;
        const sim::Tick boundary =
            std::max(due_step, prev_boundary + cs);
        if (boundary >= end)
            break;

        pool.parallelForChunked(
            n_racks, grain,
            [&](std::size_t begin, std::size_t chunk_end) {
                core::ProfileAggregator aggregator;
                for (std::size_t r = begin; r < chunk_end; ++r) {
                    RackRuntime &rack = runtime(r);
                    rack.advance(boundary);
                    rack.boundaryCollect(boundary, aggregator);
                }
            });

        if (hier_recomputes == 0) {
            // Zone limit: the sum of the rack limits, in rack
            // order (every rack is built by now).
            for (const auto &rack : runtimes)
                zone_limit += rack->limitWatts();
        }
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < n_racks; ++r)
            hierarchy.exchangeRackAggregate(
                static_cast<int>(r), runtimes[r]->aggregateSlot());
        hierarchy.recompute(zone_limit);
        hier_seconds += secondsSince(t0);
        ++hier_recomputes;

        pool.parallelForChunked(
            n_racks, grain,
            [&](std::size_t begin, std::size_t chunk_end) {
                std::vector<double> usable;
                for (std::size_t r = begin; r < chunk_end; ++r)
                    runtimes[r]->boundaryFinishZone(hierarchy,
                                                    usable);
            });

        prev_boundary = boundary;
        sched += config.recomputePeriod;
    }

    pool.parallelForChunked(
        n_racks, grain,
        [&](std::size_t begin, std::size_t chunk_end) {
            for (std::size_t r = begin; r < chunk_end; ++r) {
                RackRuntime &rack = runtime(r);
                rack.advance(end);
                rack.finish();
                runtimes[r].reset();
            }
        });

    TraceSimResult result = mergeOutcomes(outcomes);
    result.hierSeconds = hier_seconds;
    result.hierarchyRecomputes = hier_recomputes;
    result.hierarchyStats = hierarchy.stats();
    return result;
}

} // namespace

TraceSimResult
runTraceSim(const TraceSimConfig &config)
{
    config.validate();
    const power::PowerModel model(config.hardware);
    core::SoaConfig soa_cfg =
        core::SoaConfig::forPolicy(config.policy);
    soa_cfg.controlPeriod = config.controlStep;
    // Trace studies stress the power path; keep the lifetime budget
    // generous enough that peaks fit (the paper's operators size the
    // budget to the workloads' requirements).
    soa_cfg.overclockFraction = 0.25;
    soa_cfg.templateWindow = config.templateWindow;
    if (config.ingress.enabled)
        soa_cfg.flapHoldoff = config.ingress.flapHoldoff;

    return runReplay(config, model, soa_cfg);
}

std::vector<TraceSimResult>
runTraceSimBatch(const std::vector<TraceSimConfig> &configs,
                 int threads)
{
    std::vector<TraceSimResult> results(configs.size());
    sim::ThreadPool pool(std::min<int>(
        sim::ThreadPool::resolveThreads(threads),
        static_cast<int>(std::max<std::size_t>(1, configs.size()))));
    // Grain 1: configs are few and heavyweight (whole runs), so the
    // atomic cursor load-balances them individually; each result
    // lands in its own slot, keeping output order-independent.
    pool.parallelForChunked(
        configs.size(), 1, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                TraceSimConfig cfg = configs[i];
                cfg.threads = 1; // the batch pool is the parallelism
                results[i] = runTraceSim(cfg);
            }
        });
    return results;
}

} // namespace cluster
} // namespace soc
