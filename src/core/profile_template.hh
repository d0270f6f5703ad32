/**
 * @file
 * Power/utilization profile templates (§IV-B, Figs. 8 and 15).
 *
 * A template predicts a server's or rack's telemetry (power draw,
 * CPU utilization, overclocked-core count) at a future instant from
 * the prior week's history.  SmartOClock's production choice is
 * *DailyMed*: aggregate all weekdays of the prior week into one
 * typical day by taking the per-slot median, with a separate
 * template for weekends.  The alternative strategies evaluated in
 * Fig. 15 are implemented for comparison:
 *
 *  - FlatMed / FlatMax — constant prediction (median / max of all
 *    prior measurements);
 *  - Weekly — replay last week's series slot for slot;
 *  - DailyMed / DailyMax — per-slot median / max across the week's
 *    weekdays (weekends aggregated separately).
 */

#ifndef SOC_CORE_PROFILE_TEMPLATE_HH
#define SOC_CORE_PROFILE_TEMPLATE_HH

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hh"
#include "telemetry/time_series.hh"

namespace soc
{
namespace core
{

/** Template-construction strategies compared in Fig. 15. */
enum class TemplateStrategy {
    FlatMed,
    FlatMax,
    Weekly,
    DailyMed,
    DailyMax,
};

/** Printable strategy name. */
std::string strategyName(TemplateStrategy strategy);

class SlotAggregator;

/**
 * An immutable prediction function over time-of-week.
 */
class ProfileTemplate
{
  public:
    /** Zero template (predicts 0 everywhere). */
    ProfileTemplate();

    /**
     * Build a template of the given strategy from history.
     *
     * @param strategy Aggregation strategy.
     * @param history  Telemetry sampled at the 5-minute slot width;
     *                 typically the prior week(s).
     */
    static ProfileTemplate build(TemplateStrategy strategy,
                                 const telemetry::TimeSeries &history);

    /** Constant template. */
    static ProfileTemplate flat(double value);

    /**
     * Width of the day-row layout every recompute runs at: one
     * weekday row, then one weekend row, of sim::kSlotsPerDay values
     * each.  Every online input repeats daily (DailyMed or flat
     * templates, and budgets split slot by slot from them), so a
     * week of it is these two rows replayed.
     */
    static constexpr std::size_t kDayRowSlots =
        2 * static_cast<std::size_t>(sim::kSlotsPerDay);

    /**
     * True when @p week (sim::kSlotsPerWeek values, Monday 00:00
     * first) repeats daily: its five weekdays equal bit for bit, and
     * so its two weekend days.  Bit equality (memcmp) keeps -0.0
     * apart from 0.0 and NaN payloads exact.
     */
    static bool repeatsDaily(const double *week);

    /**
     * Template directly from one week of per-slot values
     * (sim::kSlotsPerWeek entries, Monday 00:00 first).
     *
     * A week that repeatsDaily() is stored as one weekday and one
     * weekend row of kSlotsPerDay values, in the DailyMed form
     * (3.5x smaller); any other week keeps all its slots in the
     * Weekly form.  Both forms predict the input week at every
     * tick, and peak and trough agree too.
     */
    static ProfileTemplate fromWeekly(std::vector<double> values);

    /**
     * Overwrite this template in place with the sim::kSlotsPerWeek
     * values at @p week (same semantics and storage as fromWeekly).
     * Copy-assigns into the existing rows, reusing the allocation.
     */
    void assignWeekly(const double *week);

    /**
     * Overwrite this template in place with the kDayRowSlots day
     * rows at @p rows (weekday row, then weekend row): stores
     * exactly what assignWeekly stores for the week those rows
     * replay.  The budget allocator and the profile aggregator
     * write their results this way.
     */
    void assignDayRows(const double *rows);

    TemplateStrategy strategy() const { return strategy_; }

    /** Predicted value at simulated time @p t. */
    double predict(sim::Tick t) const;

    /**
     * Write this template's day rows into @p out (kDayRowSlots
     * values: the weekday row, then the weekend row), equal to
     * predict() at every slot of a weekday and of a weekend day.
     * The bulk accessor every recompute reads its inputs through:
     * a flat template fills both rows with its value, a DailyMed or
     * DailyMax one copies its rows.  A Weekly template with stored
     * slots does not repeat daily and throws std::invalid_argument.
     */
    void fillDayRows(double *out) const;

    /**
     * Like fillDayRows, but writes fn(prediction): out[i] ==
     * fn(v[i]) where v is what fillDayRows writes, with @p fn
     * invoked once per *stored value* — kDayRowSlots calls for day
     * rows, a single call for a flat template.  For a pure @p fn
     * this is exact (same double in, same double out).  The budget
     * allocator maps its per-core overclock surcharge model over
     * utilization templates this way; the model evaluation per
     * (server, slot) dominated recompute cost.  Throws like
     * fillDayRows.
     */
    template <typename Fn>
    void fillDayRowsMapped(double *out, Fn fn) const
    {
        if (dayRowsEmpty()) {
            std::fill(out, out + kDayRowSlots, fn(flatValue_));
            return;
        }
        const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
        for (std::size_t s = 0; s < day; ++s)
            out[s] = fn(weekday_[s]);
        for (std::size_t s = 0; s < day; ++s)
            out[day + s] = fn(weekend_[s]);
    }

    /** Predictions aligned with @p actual's sampling grid. */
    std::vector<double>
    predictSeries(const telemetry::TimeSeries &actual) const;

    /** Root-mean-squared prediction error against @p actual. */
    double rmseAgainst(const telemetry::TimeSeries &actual) const;

    /** Mean signed error (positive = overprediction). */
    double biasAgainst(const telemetry::TimeSeries &actual) const;

    /** Largest value the template ever predicts. */
    double peak() const;

    /** Smallest value the template ever predicts. */
    double trough() const;

    /**
     * Exact structural equality (strategy and every stored value).
     * Two templates that compare equal predict identically at every
     * tick; the incremental-maintenance tests use this to enforce
     * bit-identical agreement with the batch builder.
     */
    bool operator==(const ProfileTemplate &other) const;
    bool operator!=(const ProfileTemplate &other) const
    {
        return !(*this == other);
    }

  private:
    /**
     * True when this template predicts flatValue_ everywhere (flat,
     * or built from an empty history); false when it stores day
     * rows.  Throws std::invalid_argument for a Weekly template with
     * stored slots, the one form that does not repeat daily.
     */
    bool dayRowsEmpty() const;

    /** Store @p weekday and @p weekend (kSlotsPerDay values each)
     *  as DailyMed day rows. */
    void assignRows(const double *weekday, const double *weekend);

    /** SlotAggregator mirrors build() incrementally and must fill
     *  the same representation the batch builder produces. */
    friend class SlotAggregator;
    TemplateStrategy strategy_ = TemplateStrategy::FlatMed;
    double flatValue_ = 0.0;
    /** Per slot-of-day values for weekdays (DailyMed/DailyMax,
     *  a daily-repeating assignWeekly, and assignDayRows). */
    std::vector<double> weekday_;
    /** Per slot-of-day values for weekends (as weekday_). */
    std::vector<double> weekend_;
    /** Per slot-of-week values (Weekly, and an assignWeekly week
     *  that does not repeat daily). */
    std::vector<double> weekly_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_PROFILE_TEMPLATE_HH
