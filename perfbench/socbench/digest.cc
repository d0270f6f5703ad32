#include "digest.hh"

#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

namespace socbench
{

using namespace soc;

namespace
{

class Fnv
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    template <typename T> void add(T value)
    {
        static_assert(std::is_arithmetic_v<T>);
        // Widen to a fixed 8-byte field so the digest does not
        // depend on which integer width a counter happens to use.
        if constexpr (std::is_floating_point_v<T>) {
            const double d = static_cast<double>(value);
            std::uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof bits);
            bytes(&bits, sizeof bits);
        } else {
            const auto wide = static_cast<std::uint64_t>(value);
            bytes(&wide, sizeof wide);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
add(Fnv &f, const sim::FaultStats &s)
{
    f.add(s.goaOutages);
    f.add(s.recomputesSkipped);
    f.add(s.soaCrashes);
    f.add(s.telemetryDrops);
    f.add(s.telemetryRetries);
    f.add(s.budgetDrops);
    f.add(s.budgetDelays);
    f.add(s.budgetRejects);
}

void
add(Fnv &f, const core::IngressStats &s)
{
    f.add(s.offered);
    f.add(s.accepted);
    f.add(s.parseRejects);
    for (const auto reason : s.rejectsByReason)
        f.add(reason);
    f.add(s.duplicates);
    f.add(s.overflowEvictions);
    f.add(s.overflowSuperseded);
    f.add(s.sinkDrops);
    f.add(s.drained);
    f.add(s.drainBatches);
    f.add(s.maxDepth);
}

/** One entry of the pinned-digest table (pinned_digests.inc). */
struct Pinned {
    const char *workload;
    std::uint64_t seed;
    std::uint64_t digest;
};

const std::vector<Pinned> kPinned = {
#include "pinned_digests.inc"
};

} // namespace

std::uint64_t
digest(const cluster::TraceSimResult &r)
{
    Fnv f;
    f.add(r.capEvents);
    f.add(r.cappedTicks);
    f.add(r.warnings);
    f.add(r.requests);
    f.add(r.wantSteps);
    f.add(r.successSteps);
    f.add(r.successRate);
    f.add(r.cappingPenalty);
    f.add(r.normPerformance);
    f.add(r.meanRackUtil);
    f.add(r.energyJoules.count());
    // genSeconds, simSeconds, hierSeconds: host time, not state.
    f.add(r.hierarchyRecomputes);
    f.add(r.hierarchyStats.rackAggregations);
    f.add(r.hierarchyStats.rowAggregations);
    f.add(r.hierarchyStats.splits);
    add(f, r.faults);
    f.add(r.capEventsFaultAttributed);
    f.add(r.staleLeaseTicks);
    f.add(r.recoveries);
    f.add(r.meanRecoveryS);
    add(f, r.ingress);
    f.add(r.flapDenied);
    return f.value();
}

std::uint64_t
digest(const cluster::ServiceSimResult &r)
{
    Fnv f;
    for (const auto &c : r.byClass) {
        f.add(c.p99Ms);
        f.add(c.meanMs);
        f.add(c.completed);
        f.add(c.violations);
        f.add(c.meanInstances);
        f.add(c.energyPerServerJ);
        f.add(c.missedSloTimeFrac);
    }
    f.add(r.totalEnergyJ.count());
    f.add(r.socialEnergyJ.count());
    f.add(r.mlThroughputNorm);
    f.add(r.capEvents);
    f.add(r.meanInstancesAll);
    f.add(r.scaleOuts);
    f.add(r.proactiveScaleOuts);
    f.add(r.overclockStarts);
    f.add(r.denials);
    f.add(r.missedSloTimeFrac);
    add(f, r.faults);
    add(f, r.ingress);
    f.add(r.rejectedMetrics);
    return f.value();
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::optional<std::uint64_t>
pinnedDigest(const std::string &workload, std::uint64_t seed)
{
    for (const auto &p : kPinned)
        if (workload == p.workload && seed == p.seed)
            return p.digest;
    return std::nullopt;
}

} // namespace socbench
