#include "sim/fault_injector.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/rng.hh"

namespace soc
{
namespace sim
{

namespace
{

/** Hash-stream tags: one per decision kind so the streams never
 *  alias even for identical (server, time) operands. */
enum : std::uint64_t {
    kTagOutage = 1,
    kTagCrash = 2,
    kTagTelemetry = 3,
    kTagBudgetLoss = 4,
    kTagBudgetDelayGate = 5,
    kTagBudgetDelayAmount = 6,
    kTagBudgetCorrupt = 7,
    kTagCorruptKind = 8,
    kTagSensorA = 9,
    kTagSensorB = 10,
};

void
requireProb(double p, const char *name)
{
    if (!(p >= 0.0 && p <= 1.0)) {
        throw std::invalid_argument(
            std::string("FaultConfig: ") + name +
            " must be in [0, 1], got " + std::to_string(p));
    }
}

void
requireFinite(double v, const char *name, bool nonNegative)
{
    if (!std::isfinite(v) || (nonNegative && v < 0.0)) {
        throw std::invalid_argument(
            std::string("FaultConfig: ") + name + " must be finite" +
            (nonNegative ? " and >= 0" : "") + ", got " +
            std::to_string(v));
    }
}

} // namespace

void
FaultConfig::validate() const
{
    requireFinite(goaOutagesPerWeek, "goaOutagesPerWeek", true);
    requireFinite(soaCrashesPerServerWeek, "soaCrashesPerServerWeek",
                  true);
    requireProb(telemetryLossProb, "telemetryLossProb");
    requireProb(budgetLossProb, "budgetLossProb");
    requireProb(budgetDelayProb, "budgetDelayProb");
    requireProb(budgetCorruptProb, "budgetCorruptProb");
    requireFinite(sensorNoiseStd, "sensorNoiseStd", true);
    requireFinite(sensorBias, "sensorBias", false);
    if (goaOutageMeanDuration < 0) {
        throw std::invalid_argument(
            "FaultConfig: goaOutageMeanDuration must be >= 0");
    }
    if (budgetDelayMax < 0) {
        throw std::invalid_argument(
            "FaultConfig: budgetDelayMax must be >= 0");
    }
    if (telemetryAttempts < 1) {
        throw std::invalid_argument(
            "FaultConfig: telemetryAttempts must be >= 1, got " +
            std::to_string(telemetryAttempts));
    }
}

FaultConfig
FaultConfig::standardChaos()
{
    FaultConfig config;
    config.enabled = true;
    config.goaOutagesPerWeek = 2.0;
    config.goaOutageMeanDuration = 8 * kHour;
    config.soaCrashesPerServerWeek = 1.0;
    config.telemetryLossProb = 0.20;
    config.telemetryAttempts = 3;
    config.budgetLossProb = 0.10;
    config.budgetDelayProb = 0.20;
    config.budgetDelayMax = 30 * kMinute;
    config.budgetCorruptProb = 0.05;
    config.sensorNoiseStd = 0.02;
    config.sensorBias = 0.01;
    return config;
}

void
FaultStats::merge(const FaultStats &other)
{
    goaOutages += other.goaOutages;
    recomputesSkipped += other.recomputesSkipped;
    soaCrashes += other.soaCrashes;
    telemetryDrops += other.telemetryDrops;
    telemetryRetries += other.telemetryRetries;
    budgetDrops += other.budgetDrops;
    budgetDelays += other.budgetDelays;
    budgetRejects += other.budgetRejects;
}

FaultPlan
FaultPlan::generate(const FaultConfig &config, std::uint64_t seed,
                    std::uint64_t rack, int servers, Tick horizon)
{
    config.validate();
    FaultPlan plan;
    plan.config_ = config;
    plan.enabled_ = config.enabled;
    plan.stream_ = deriveSeed(seed ^ config.salt, rack);
    if (!config.enabled || horizon <= 0)
        return plan;

    const double weeks =
        static_cast<double>(horizon) / static_cast<double>(kWeek);

    // gOA outage episodes: Poisson count over the horizon, uniform
    // starts, exponential durations, overlaps merged.
    if (config.goaOutagesPerWeek > 0.0) {
        Rng rng(deriveSeed(plan.stream_, kTagOutage));
        const std::int64_t count =
            rng.poisson(config.goaOutagesPerWeek * weeks);
        std::vector<GoaOutage> raw;
        for (std::int64_t i = 0; i < count; ++i) {
            GoaOutage outage;
            outage.start = rng.uniformInt(0, horizon - 1);
            const double span = rng.exponential(static_cast<double>(
                std::max<Tick>(1, config.goaOutageMeanDuration)));
            outage.end = outage.start +
                std::max<Tick>(kMinute, static_cast<Tick>(span));
            raw.push_back(outage);
        }
        std::sort(raw.begin(), raw.end(),
                  [](const GoaOutage &a, const GoaOutage &b) {
            return a.start < b.start;
        });
        for (const auto &outage : raw) {
            if (!plan.outages_.empty() &&
                outage.start <= plan.outages_.back().end) {
                plan.outages_.back().end =
                    std::max(plan.outages_.back().end, outage.end);
            } else {
                plan.outages_.push_back(outage);
            }
        }
    }

    // Crash schedule: independent Poisson process per server, so
    // adding a server never perturbs the others' crash times.
    if (config.soaCrashesPerServerWeek > 0.0) {
        for (int s = 0; s < servers; ++s) {
            Rng rng(deriveSeed(
                plan.stream_,
                kTagCrash * 1000003ULL + static_cast<std::uint64_t>(s)));
            const std::int64_t count =
                rng.poisson(config.soaCrashesPerServerWeek * weeks);
            for (std::int64_t i = 0; i < count; ++i) {
                SoaCrashEvent crash;
                crash.server = s;
                crash.at = rng.uniformInt(0, horizon - 1);
                plan.crashes_.push_back(crash);
            }
        }
        std::sort(plan.crashes_.begin(), plan.crashes_.end(),
                  [](const SoaCrashEvent &a, const SoaCrashEvent &b) {
            return a.at != b.at ? a.at < b.at : a.server < b.server;
        });
    }
    return plan;
}

bool
FaultPlan::goaDown(Tick now) const
{
    if (!enabled_ || outages_.empty())
        return false;
    // First episode starting after `now`; the one before it is the
    // only candidate that can contain `now`.
    auto it = std::upper_bound(
        outages_.begin(), outages_.end(), now,
        [](Tick t, const GoaOutage &o) { return t < o.start; });
    if (it == outages_.begin())
        return false;
    --it;
    return now < it->end;
}

double
FaultPlan::hashUniform(std::uint64_t kind, std::uint64_t a,
                       std::uint64_t b, std::uint64_t c) const
{
    std::uint64_t h = deriveSeed(stream_, kind);
    h = deriveSeed(h, a);
    h = deriveSeed(h, b);
    h = deriveSeed(h, c);
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
FaultPlan::telemetryLost(int server, Tick now, int attempt) const
{
    if (!enabled_ || config_.telemetryLossProb <= 0.0)
        return false;
    return hashUniform(kTagTelemetry,
                       static_cast<std::uint64_t>(server),
                       static_cast<std::uint64_t>(now),
                       static_cast<std::uint64_t>(attempt)) <
        config_.telemetryLossProb;
}

bool
FaultPlan::budgetLost(int server, Tick now) const
{
    if (!enabled_ || config_.budgetLossProb <= 0.0)
        return false;
    return hashUniform(kTagBudgetLoss,
                       static_cast<std::uint64_t>(server),
                       static_cast<std::uint64_t>(now)) <
        config_.budgetLossProb;
}

Tick
FaultPlan::budgetDelay(int server, Tick now) const
{
    if (!enabled_ || config_.budgetDelayProb <= 0.0 ||
        config_.budgetDelayMax <= 0) {
        return 0;
    }
    if (hashUniform(kTagBudgetDelayGate,
                    static_cast<std::uint64_t>(server),
                    static_cast<std::uint64_t>(now)) >=
        config_.budgetDelayProb) {
        return 0;
    }
    const double frac = hashUniform(
        kTagBudgetDelayAmount, static_cast<std::uint64_t>(server),
        static_cast<std::uint64_t>(now));
    return 1 + static_cast<Tick>(
        frac * static_cast<double>(config_.budgetDelayMax));
}

bool
FaultPlan::budgetCorrupted(int server, Tick now) const
{
    if (!enabled_ || config_.budgetCorruptProb <= 0.0)
        return false;
    return hashUniform(kTagBudgetCorrupt,
                       static_cast<std::uint64_t>(server),
                       static_cast<std::uint64_t>(now)) <
        config_.budgetCorruptProb;
}

int
FaultPlan::corruptionKind(int server, Tick now) const
{
    return static_cast<int>(
        hashUniform(kTagCorruptKind,
                    static_cast<std::uint64_t>(server),
                    static_cast<std::uint64_t>(now)) * 3.0);
}

double
FaultPlan::sensorFactor(int server, Tick now) const
{
    if (!enabled_ ||
        (config_.sensorNoiseStd <= 0.0 && config_.sensorBias == 0.0)) {
        return 1.0;
    }
    double z = 0.0;
    if (config_.sensorNoiseStd > 0.0) {
        // Box-Muller over two stateless uniforms; u1 nudged away
        // from zero so the log stays finite.
        const double u1 = std::max(
            hashUniform(kTagSensorA,
                        static_cast<std::uint64_t>(server),
                        static_cast<std::uint64_t>(now)),
            1e-12);
        const double u2 = hashUniform(
            kTagSensorB, static_cast<std::uint64_t>(server),
            static_cast<std::uint64_t>(now));
        z = std::sqrt(-2.0 * std::log(u1)) *
            std::cos(2.0 * 3.14159265358979323846 * u2);
    }
    const double factor =
        1.0 + config_.sensorBias + config_.sensorNoiseStd * z;
    // A sensor may misread, but never reports negative power.
    return std::max(0.05, factor);
}

} // namespace sim
} // namespace soc
