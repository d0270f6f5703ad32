#include "workload/archetype.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace soc
{
namespace workload
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** Smooth bump centered at @p center hours, half-width @p width. */
double
bump(double hour, double center, double width)
{
    const double dist = std::abs(hour - center);
    if (dist >= width)
        return 0.0;
    return 0.5 * (1.0 + std::cos(kPi * dist / width));
}

/*
 * Per-kind shape kernels.  shapeValue dispatches to these per
 * sample; the minute-of-day tables below are built from the same
 * dispatch, so a table lookup is bit-identical to calling the
 * kernel.
 */

double
shapeMorningPeak(double hour)
{
    // Ramp from 8am, flat top 10am-noon, decay into afternoon.
    if (hour >= 10.0 && hour <= 12.0)
        return 1.0;
    return std::max(bump(hour, 11.0, 3.5),
                    0.15 * bump(hour, 15.0, 4.0));
}

double
shapeTopOfHour(double hour)
{
    const double minute = (hour - std::floor(hour)) * 60.0;
    const bool spike = minute < 5.0 ||
        (minute >= 30.0 && minute < 35.0);
    // Spikes ride on a business-hours plateau.
    const double plateau = 0.35 * bump(hour, 13.0, 7.0);
    return spike ? std::min(1.0, plateau + 0.65) : plateau;
}

double
shapeBusinessHours(double hour)
{
    if (hour >= 9.0 && hour <= 17.0)
        return 0.85 + 0.15 * bump(hour, 13.0, 4.0);
    return bump(hour, 13.0, 6.5) * 0.5;
}

double
shapeDiurnal(double hour)
{
    return bump(hour, 13.5, 9.0);
}

double
shapeConstantHigh(double)
{
    return 1.0;
}

double
shapeNightBatch(double hour)
{
    return std::max(bump(hour, 2.0, 4.0), bump(hour, 23.5, 2.0));
}

double
shapeLowIdle(double hour)
{
    return 0.2 * bump(hour, 12.0, 8.0);
}

constexpr int kMinutesPerDay =
    static_cast<int>(sim::kDay / sim::kMinute);
constexpr int kShapeKinds = static_cast<int>(ShapeKind::LowIdle) + 1;
/** Whole minutes in (-1 day, +1 day): timeOfDay of a negative tick
 *  is negative, so the table spans both signs. */
constexpr int kTableMinutes = 2 * kMinutesPerDay - 1;

/**
 * shapeValue at every whole minute of day, one row per ShapeKind.
 * The shape depends on time only through sim::hourOfDay, so the
 * ~160 KB of rows replace every kernel call of a whole-minute fill.
 * Built once, on first use, and read-only after (thread-safe).
 */
struct ShapeTables {
    ShapeTables()
    {
        for (int k = 0; k < kShapeKinds; ++k)
            for (int m = 1 - kMinutesPerDay; m < kMinutesPerDay; ++m)
                rows[k][m + kMinutesPerDay - 1] = shapeValue(
                    static_cast<ShapeKind>(k), m * sim::kMinute);
    }

    double rows[kShapeKinds][kTableMinutes];
};

/** @return row of @p kind, indexed by minute of day in
 *  (-1440, 1440). */
const double *
shapeRow(ShapeKind kind)
{
    static const ShapeTables tables;
    return tables.rows[static_cast<int>(kind)] + kMinutesPerDay - 1;
}

} // namespace

std::string
shapeName(ShapeKind kind)
{
    switch (kind) {
      case ShapeKind::MorningPeak: return "morning-peak";
      case ShapeKind::TopOfHour: return "top-of-hour";
      case ShapeKind::BusinessHours: return "business-hours";
      case ShapeKind::Diurnal: return "diurnal";
      case ShapeKind::ConstantHigh: return "constant-high";
      case ShapeKind::NightBatch: return "night-batch";
      case ShapeKind::LowIdle: return "low-idle";
    }
    return "unknown";
}

double
shapeValue(ShapeKind kind, sim::Tick t)
{
    const double hour = sim::hourOfDay(t);
    switch (kind) {
      case ShapeKind::MorningPeak: return shapeMorningPeak(hour);
      case ShapeKind::TopOfHour: return shapeTopOfHour(hour);
      case ShapeKind::BusinessHours: return shapeBusinessHours(hour);
      case ShapeKind::Diurnal: return shapeDiurnal(hour);
      case ShapeKind::ConstantHigh: return shapeConstantHigh(hour);
      case ShapeKind::NightBatch: return shapeNightBatch(hour);
      case ShapeKind::LowIdle: return shapeLowIdle(hour);
    }
    return 0.0;
}

double
Archetype::utilAt(sim::Tick t) const
{
    const sim::Tick shifted = t + phaseShift;
    double amplitude = peakUtil - baseUtil;
    if (sim::isWeekend(shifted) && kind != ShapeKind::ConstantHigh)
        amplitude *= weekendFactor;
    const double util =
        baseUtil + amplitude * shapeValue(kind, shifted);
    return std::clamp(util, 0.0, 1.0);
}

double
shapeAtMinute(ShapeKind kind, int minuteOfDay)
{
    assert(minuteOfDay > -kMinutesPerDay &&
           minuteOfDay < kMinutesPerDay);
    return shapeRow(kind)[minuteOfDay];
}

void
Archetype::utilFill(sim::Tick start, sim::Tick interval,
                    std::size_t n, double *out) const
{
    sim::Tick shifted = start + phaseShift;
    if (shifted % sim::kMinute != 0 || interval % sim::kMinute != 0 ||
        interval < 0) {
        // Off the minute grid the tables do not apply.
        for (std::size_t k = 0; k < n; ++k)
            out[k] = utilAt(start + static_cast<sim::Tick>(k) *
                            interval);
        return;
    }

    // Expression order mirrors utilAt exactly (bit-identity is
    // pinned by test); ConstantHigh ignores weekends.
    const double *shape = shapeRow(kind);
    const double base = baseUtil;
    const double weekday_amplitude = peakUtil - baseUtil;
    const double weekend_amplitude = kind == ShapeKind::ConstantHigh
        ? weekday_amplitude
        : weekday_amplitude * weekendFactor;

    // Negative shifted ticks (a phase shift before tick 0) take the
    // general per-sample index.
    std::size_t k = 0;
    for (; k < n && shifted < 0; ++k, shifted += interval) {
        const double amplitude = sim::isWeekend(shifted)
            ? weekend_amplitude
            : weekday_amplitude;
        const auto minute = static_cast<int>(
            sim::timeOfDay(shifted) / sim::kMinute);
        out[k] = std::clamp(base + amplitude * shape[minute], 0.0,
                            1.0);
    }
    if (k == n)
        return;

    // From the first non-negative tick on, walk minute of day and
    // day of week incrementally: no divides per sample.
    const sim::Tick step = interval / sim::kMinute;
    const auto step_minutes = static_cast<int>(step % kMinutesPerDay);
    const auto step_days =
        static_cast<int>((step / kMinutesPerDay) % 7);
    auto minute =
        static_cast<int>(sim::timeOfDay(shifted) / sim::kMinute);
    int day = sim::dayOfWeek(shifted);
    // soclint:hot-begin(PERF-001) — runs under every window refill
    // (ServerTraceStream::generateQuantized): table reads only.
    for (; k < n; ++k) {
        const double amplitude =
            day >= 5 ? weekend_amplitude : weekday_amplitude;
        out[k] = std::clamp(base + amplitude * shape[minute], 0.0,
                            1.0);
        minute += step_minutes;
        day += step_days;
        if (minute >= kMinutesPerDay) {
            minute -= kMinutesPerDay;
            ++day;
        }
        if (day >= 7)
            day -= 7;
    }
    // soclint:hot-end(PERF-001)
}

Archetype
serviceA()
{
    Archetype a;
    a.kind = ShapeKind::MorningPeak;
    a.baseUtil = 0.18;
    a.peakUtil = 0.88;
    a.noiseSigma = 0.025;
    return a;
}

Archetype
serviceB()
{
    Archetype a;
    a.kind = ShapeKind::TopOfHour;
    a.baseUtil = 0.12;
    a.peakUtil = 0.92;
    a.noiseSigma = 0.035;
    return a;
}

Archetype
serviceC()
{
    Archetype a;
    a.kind = ShapeKind::TopOfHour;
    a.baseUtil = 0.10;
    a.peakUtil = 0.80;
    a.noiseSigma = 0.030;
    a.phaseShift = 7 * sim::kMinute; // staggered spike alignment
    return a;
}

Archetype
mlTraining()
{
    Archetype a;
    a.kind = ShapeKind::ConstantHigh;
    a.baseUtil = 0.82;
    a.peakUtil = 0.92;
    a.weekendFactor = 1.0;
    a.noiseSigma = 0.02;
    return a;
}

} // namespace workload
} // namespace soc
