#include "core/profile_template.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "sim/stats.hh"

namespace soc
{
namespace core
{

std::string
strategyName(TemplateStrategy strategy)
{
    switch (strategy) {
      case TemplateStrategy::FlatMed: return "FlatMed";
      case TemplateStrategy::FlatMax: return "FlatMax";
      case TemplateStrategy::Weekly: return "Weekly";
      case TemplateStrategy::DailyMed: return "DailyMed";
      case TemplateStrategy::DailyMax: return "DailyMax";
    }
    return "unknown";
}

ProfileTemplate::ProfileTemplate() = default;

ProfileTemplate
ProfileTemplate::flat(double value)
{
    ProfileTemplate out;
    out.strategy_ = TemplateStrategy::FlatMed;
    out.flatValue_ = value;
    return out;
}

ProfileTemplate
ProfileTemplate::fromWeekly(std::vector<double> values)
{
    assert(values.size() ==
           static_cast<std::size_t>(sim::kSlotsPerWeek));
    ProfileTemplate out;
    out.assignWeekly(values.data());
    return out;
}

bool
ProfileTemplate::repeatsDaily(const double *week)
{
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    const std::size_t day_bytes = day * sizeof(double);
    if (std::memcmp(week + 5 * day, week + 6 * day, day_bytes) != 0)
        return false;
    for (std::size_t d = 1; d < 5; ++d)
        if (std::memcmp(week, week + d * day, day_bytes) != 0)
            return false;
    return true;
}

void
ProfileTemplate::assignRows(const double *weekday,
                            const double *weekend)
{
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    strategy_ = TemplateStrategy::DailyMed;
    flatValue_ = 0.0;
    weekday_.assign(weekday, weekday + day);
    weekend_.assign(weekend, weekend + day);
    std::vector<double>().swap(weekly_);
}

void
ProfileTemplate::assignWeekly(const double *week)
{
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    if (repeatsDaily(week)) {
        // Monday and Saturday stand for their day class; the
        // DailyMed read paths replay them (days 5-6 are the weekend,
        // sim::isWeekend).
        assignRows(week, week + 5 * day);
        return;
    }
    strategy_ = TemplateStrategy::Weekly;
    flatValue_ = 0.0;
    weekly_.assign(week, week + 7 * day);
    std::vector<double>().swap(weekday_);
    std::vector<double>().swap(weekend_);
}

void
ProfileTemplate::assignDayRows(const double *rows)
{
    assignRows(rows, rows + sim::kSlotsPerDay);
}

bool
ProfileTemplate::operator==(const ProfileTemplate &other) const
{
    return strategy_ == other.strategy_ &&
        flatValue_ == other.flatValue_ &&
        weekday_ == other.weekday_ && weekend_ == other.weekend_ &&
        weekly_ == other.weekly_;
}

ProfileTemplate
ProfileTemplate::build(TemplateStrategy strategy,
                       const telemetry::TimeSeries &history)
{
    assert(history.interval() == sim::kSlot &&
           "templates require 5-minute telemetry");
    ProfileTemplate out;
    out.strategy_ = strategy;

    const auto &values = history.values();
    if (values.empty())
        return out;

    switch (strategy) {
      case TemplateStrategy::FlatMed:
        out.flatValue_ = sim::median(values);
        return out;
      case TemplateStrategy::FlatMax:
        out.flatValue_ = *std::max_element(values.begin(),
                                           values.end());
        return out;
      case TemplateStrategy::Weekly: {
        // Replay the most recent week, aligned by slot-of-week.
        out.weekly_.assign(sim::kSlotsPerWeek, 0.0);
        std::vector<bool> filled(sim::kSlotsPerWeek, false);
        for (std::size_t i = history.size(); i-- > 0;) {
            const sim::Tick t = history.timeOf(i);
            const int slot = static_cast<int>(
                (t % sim::kWeek) / sim::kSlot);
            if (!filled[slot]) {
                out.weekly_[slot] = history.at(i);
                filled[slot] = true;
            }
        }
        // Backfill any gap with the history median.
        const double fallback = sim::median(values);
        for (int s = 0; s < sim::kSlotsPerWeek; ++s)
            if (!filled[s])
                out.weekly_[s] = fallback;
        return out;
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        // Aggregate per slot-of-day, weekdays and weekends apart.
        std::vector<std::vector<double>> weekday(sim::kSlotsPerDay);
        std::vector<std::vector<double>> weekend(sim::kSlotsPerDay);
        for (std::size_t i = 0; i < history.size(); ++i) {
            const sim::Tick t = history.timeOf(i);
            auto &bucket = sim::isWeekend(t)
                ? weekend[sim::slotOfDay(t)]
                : weekday[sim::slotOfDay(t)];
            bucket.push_back(history.at(i));
        }
        const bool use_max = strategy == TemplateStrategy::DailyMax;
        auto aggregate = [use_max](std::vector<double> &bucket,
                                   double fallback) {
            if (bucket.empty())
                return fallback;
            if (use_max)
                return *std::max_element(bucket.begin(), bucket.end());
            return sim::median(bucket);
        };
        const double fallback = sim::median(values);
        out.weekday_.resize(sim::kSlotsPerDay);
        out.weekend_.resize(sim::kSlotsPerDay);
        for (int s = 0; s < sim::kSlotsPerDay; ++s) {
            out.weekday_[s] = aggregate(weekday[s], fallback);
            // Weekends fall back to the weekday value when the
            // history covers no weekend yet.
            out.weekend_[s] = aggregate(weekend[s], out.weekday_[s]);
        }
        return out;
      }
    }
    return out;
}

double
ProfileTemplate::predict(sim::Tick t) const
{
    switch (strategy_) {
      case TemplateStrategy::FlatMed:
      case TemplateStrategy::FlatMax:
        return flatValue_;
      case TemplateStrategy::Weekly: {
        if (weekly_.empty())
            return flatValue_;
        const int slot = static_cast<int>(
            ((t % sim::kWeek) + sim::kWeek) % sim::kWeek / sim::kSlot);
        return weekly_[slot];
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        if (weekday_.empty())
            return flatValue_;
        // Day rows stored by assignWeekly must predict a negative
        // tick like the week they replaced: wrap it into the week
        // first, as the Weekly form does.
        const sim::Tick w =
            t < 0 ? (t % sim::kWeek) + sim::kWeek : t;
        const auto &day = sim::isWeekend(w) ? weekend_ : weekday_;
        return day[sim::slotOfDay(w)];
      }
    }
    return 0.0;
}

bool
ProfileTemplate::dayRowsEmpty() const
{
    switch (strategy_) {
      case TemplateStrategy::FlatMed:
      case TemplateStrategy::FlatMax:
        return true;
      case TemplateStrategy::Weekly:
        if (!weekly_.empty()) {
            throw std::invalid_argument(
                "ProfileTemplate: a Weekly template does not repeat "
                "daily and has no day rows");
        }
        return true;
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax:
        return weekday_.empty();
    }
    return true;
}

void
ProfileTemplate::fillDayRows(double *out) const
{
    if (dayRowsEmpty()) {
        std::fill(out, out + kDayRowSlots, flatValue_);
        return;
    }
    std::copy(weekday_.begin(), weekday_.end(), out);
    std::copy(weekend_.begin(), weekend_.end(),
              out + sim::kSlotsPerDay);
}

std::vector<double>
ProfileTemplate::predictSeries(const telemetry::TimeSeries &actual)
    const
{
    std::vector<double> out;
    out.reserve(actual.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        out.push_back(predict(actual.timeOf(i)));
    return out;
}

double
ProfileTemplate::rmseAgainst(const telemetry::TimeSeries &actual) const
{
    return sim::rmse(actual.values(), predictSeries(actual));
}

double
ProfileTemplate::biasAgainst(const telemetry::TimeSeries &actual) const
{
    return sim::meanSignedError(actual.values(),
                                predictSeries(actual));
}

double
ProfileTemplate::peak() const
{
    double best = flatValue_;
    for (double v : weekday_)
        best = std::max(best, v);
    for (double v : weekend_)
        best = std::max(best, v);
    for (double v : weekly_)
        best = std::max(best, v);
    return best;
}

double
ProfileTemplate::trough() const
{
    if (weekday_.empty() && weekend_.empty() && weekly_.empty())
        return flatValue_;
    double worst = std::numeric_limits<double>::infinity();
    for (double v : weekday_)
        worst = std::min(worst, v);
    for (double v : weekend_)
        worst = std::min(worst, v);
    for (double v : weekly_)
        worst = std::min(worst, v);
    return worst;
}

} // namespace core
} // namespace soc
