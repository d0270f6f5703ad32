#include "core/slot_aggregator.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace soc
{
namespace core
{

namespace
{

/**
 * Mirrors sim::median() over an already sorted range: the mid
 * element for odd sizes, the same 0.5 * (lower + upper) expression
 * for even sizes.
 */
double
sortedMedian(const std::vector<double> &sorted)
{
    assert(!sorted.empty());
    const std::size_t mid = sorted.size() / 2;
    if (sorted.size() % 2 == 1)
        return sorted[mid];
    return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

} // namespace

void
SlotAggregator::SortedBag::erase(double v)
{
    // Evictions leave in arrival order, so the victim is as likely
    // to sit in the unsorted tail as in the body; try the cheap
    // unordered removal first.
    const auto pit = std::find(pending.begin(), pending.end(), v);
    if (pit != pending.end()) {
        pending.erase(pit);
        return;
    }
    const auto it = std::lower_bound(values.begin(), values.end(), v);
    assert(it != values.end() && *it == v);
    values.erase(it);
}

void
SlotAggregator::SortedBag::flushPending() const
{
    std::sort(pending.begin(), pending.end());
    const std::size_t mid = values.size();
    values.insert(values.end(), pending.begin(), pending.end());
    std::inplace_merge(
        values.begin(),
        values.begin() + static_cast<std::ptrdiff_t>(mid),
        values.end());
    pending.clear();
}

double
SlotAggregator::SortedBag::median() const
{
    flush();
    return sortedMedian(values);
}

SlotAggregator::SlotAggregator(sim::Tick window)
    : window_(window)
{
    assert(window_ == 0 ||
           (window_ >= sim::kSlot && window_ % sim::kSlot == 0));
}

void
SlotAggregator::add(sim::Tick t, double value)
{
    assert(t >= 0);
    // The ring stores values only, so a sample's tick is implied by
    // its position: accept exactly the slot after the last one.  A
    // gap, a repeat or a step back would silently re-key every
    // retained sample behind it.
    const sim::Tick next = firstTick_ +
        static_cast<sim::Tick>(samples_.size()) * sim::kSlot;
    if (!samples_.empty() && t != next) {
        throw std::invalid_argument(
            "SlotAggregator: sample at tick " + std::to_string(t) +
            " is not the next slot (tick " + std::to_string(next) +
            ")");
    }
    // Reject non-finite telemetry before it is retained: a NaN
    // breaks the ordering comparisons every bucket sort relies on,
    // silently corrupting every median far from the cause.
    if (!std::isfinite(value)) {
        throw std::invalid_argument(
            "SlotAggregator: non-finite sample " +
            std::to_string(value) + " at tick " + std::to_string(t));
    }
    if (samples_.empty())
        firstTick_ = t;
    samples_.push_back(value);
    if (indexed_)
        indexSample(t, value);
    else if (samples_.size() > kIndexThreshold)
        buildIndex();
    ++version_;
    if (window_ > 0)
        evictOlderThan(t + sim::kSlot - window_);
}

void
SlotAggregator::indexSample(sim::Tick t, double value)
{
    all_.insert(value);
    auto &bucket = sim::isWeekend(t) ? weekend_[sim::slotOfDay(t)]
                                     : weekday_[sim::slotOfDay(t)];
    bucket.insert(value);
    const int slot_of_week =
        static_cast<int>((t % sim::kWeek) / sim::kSlot);
    weeklyLatest_[slot_of_week] = value;
    weeklyTick_[slot_of_week] = t;
}

void
SlotAggregator::buildIndex()
{
    indexed_ = true;
    all_.values.clear();
    all_.pending.clear();
    weekday_.assign(static_cast<std::size_t>(sim::kSlotsPerDay),
                    SortedBag{});
    weekend_.assign(static_cast<std::size_t>(sim::kSlotsPerDay),
                    SortedBag{});
    weeklyLatest_.assign(
        static_cast<std::size_t>(sim::kSlotsPerWeek), 0.0);
    weeklyTick_.assign(static_cast<std::size_t>(sim::kSlotsPerWeek),
                       sim::Tick{-1});
    // Replaying the ring in tick order leaves the indexed
    // structures exactly as if they had been maintained from the
    // retained samples all along: bag contents are multisets (the
    // sorted-body/pending split is representation only), and
    // latest-wins per slot-of-week matches the arrival order.
    sim::Tick t = firstTick_;
    for (const double value : samples_) {
        indexSample(t, value);
        t += sim::kSlot;
    }
}

void
SlotAggregator::evictOlderThan(sim::Tick cutoff)
{
    while (!samples_.empty() && firstTick_ < cutoff) {
        const sim::Tick t = firstTick_;
        const double value = samples_.front();
        samples_.pop_front();
        firstTick_ += sim::kSlot;
        if (indexed_) {
            all_.erase(value);
            auto &bucket = sim::isWeekend(t)
                ? weekend_[sim::slotOfDay(t)]
                : weekday_[sim::slotOfDay(t)];
            bucket.erase(value);
            const int slot_of_week =
                static_cast<int>((t % sim::kWeek) / sim::kSlot);
            // Samples leave in tick order, so when the latest value
            // of a slot-of-week is evicted no older one can remain.
            if (weeklyTick_[slot_of_week] == t)
                weeklyTick_[slot_of_week] = -1;
        }
        ++version_;
    }
}

void
SlotAggregator::clear()
{
    // Release everything outright (crash-restart forgets the shape
    // of the history too); storage regrows on demand.
    samples_.clear();
    samples_.shrink_to_fit();
    firstTick_ = 0;
    indexed_ = false;
    all_.values = {};
    all_.pending = {};
    weekday_ = {};
    weekend_ = {};
    weeklyLatest_ = {};
    weeklyTick_ = {};
    ++version_;
}

const ProfileTemplate &
SlotAggregator::build(TemplateStrategy strategy) const
{
    auto &entry = cache_[static_cast<std::size_t>(strategy)];
    if (!entry.valid || entry.version != version_) {
        entry.tmpl = assemble(strategy);
        entry.version = version_;
        entry.valid = true;
        ++rebuilds_;
    }
    return entry.tmpl;
}

ProfileTemplate
SlotAggregator::assemble(TemplateStrategy strategy) const
{
    return indexed_ ? assembleFromIndex(strategy)
                    : assembleFromRing(strategy);
}

ProfileTemplate
SlotAggregator::assembleFromRing(TemplateStrategy strategy) const
{
    // Field-for-field mirror of ProfileTemplate::build over the
    // retained samples; the equivalence tests hold the two
    // bit-identical for every strategy.
    //
    // Scratch is thread-local: contents are fully rewritten on
    // every assemble, so the result is a pure function of samples_
    // (deterministic across thread counts), and aggregators owned
    // by different racks can build concurrently.  build() runs only
    // at recompute boundaries, so sorting here instead of
    // maintaining sorted buckets on every add() trades a few
    // microseconds per rebuild for ~1.5 KB of resident state per
    // retained slot per aggregator — the dominant share of the
    // paper-scale footprint before this layout.
    ProfileTemplate out;
    out.strategy_ = strategy;
    if (empty())
        return out;

    // All retained values, sorted: FlatMed/FlatMax directly, and
    // the empty-bucket fallback median of Weekly/Daily*.
    thread_local std::vector<double> all_sorted;
    all_sorted.assign(samples_.begin(), samples_.end());
    std::sort(all_sorted.begin(), all_sorted.end());

    switch (strategy) {
      case TemplateStrategy::FlatMed:
        out.flatValue_ = sortedMedian(all_sorted);
        return out;
      case TemplateStrategy::FlatMax:
        out.flatValue_ = all_sorted.back();
        return out;
      case TemplateStrategy::Weekly: {
        // Latest retained value per slot-of-week: samples_ is in
        // tick order, so a forward scan leaves each slot holding
        // its newest retained sample.
        thread_local std::vector<double> latest;
        thread_local std::vector<signed char> filled;
        latest.assign(static_cast<std::size_t>(sim::kSlotsPerWeek),
                      0.0);
        filled.assign(static_cast<std::size_t>(sim::kSlotsPerWeek),
                      0);
        sim::Tick t = firstTick_;
        for (const double value : samples_) {
            const auto slot = static_cast<std::size_t>(
                (t % sim::kWeek) / sim::kSlot);
            latest[slot] = value;
            filled[slot] = 1;
            t += sim::kSlot;
        }
        const double fallback = sortedMedian(all_sorted);
        out.weekly_.assign(sim::kSlotsPerWeek, 0.0);
        for (int s = 0; s < sim::kSlotsPerWeek; ++s) {
            out.weekly_[s] = filled[static_cast<std::size_t>(s)]
                ? latest[static_cast<std::size_t>(s)]
                : fallback;
        }
        return out;
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        const bool use_max = strategy == TemplateStrategy::DailyMax;
        // Scatter the ring into per-(weekday|weekend)×slot buckets
        // in arrival order, then sort each bucket: the same sorted
        // arrays the batch builder derives, at build time instead
        // of incrementally.
        thread_local std::vector<std::vector<double>> weekday;
        thread_local std::vector<std::vector<double>> weekend;
        weekday.resize(static_cast<std::size_t>(sim::kSlotsPerDay));
        weekend.resize(static_cast<std::size_t>(sim::kSlotsPerDay));
        for (auto &bucket : weekday)
            bucket.clear();
        for (auto &bucket : weekend)
            bucket.clear();
        sim::Tick t = firstTick_;
        for (const double value : samples_) {
            const auto slot =
                static_cast<std::size_t>(sim::slotOfDay(t));
            (sim::isWeekend(t) ? weekend : weekday)[slot].push_back(
                value);
            t += sim::kSlot;
        }
        const double fallback = sortedMedian(all_sorted);
        auto aggregate = [use_max](std::vector<double> &bucket,
                                   double fb) {
            if (bucket.empty())
                return fb;
            std::sort(bucket.begin(), bucket.end());
            return use_max ? bucket.back() : sortedMedian(bucket);
        };
        out.weekday_.resize(sim::kSlotsPerDay);
        out.weekend_.resize(sim::kSlotsPerDay);
        for (int s = 0; s < sim::kSlotsPerDay; ++s) {
            const auto slot = static_cast<std::size_t>(s);
            out.weekday_[s] = aggregate(weekday[slot], fallback);
            out.weekend_[s] =
                aggregate(weekend[slot], out.weekday_[s]);
        }
        return out;
      }
    }
    return out;
}

ProfileTemplate
SlotAggregator::assembleFromIndex(TemplateStrategy strategy) const
{
    // Same mirror of ProfileTemplate::build, read from the
    // incrementally maintained bags: every bag read flushes first,
    // so medians/maxes come off the same sorted multisets the
    // ring-mode scatter would produce.
    ProfileTemplate out;
    out.strategy_ = strategy;
    if (empty())
        return out;

    switch (strategy) {
      case TemplateStrategy::FlatMed:
        out.flatValue_ = all_.median();
        return out;
      case TemplateStrategy::FlatMax:
        out.flatValue_ = all_.max();
        return out;
      case TemplateStrategy::Weekly: {
        out.weekly_.assign(sim::kSlotsPerWeek, 0.0);
        const double fallback = all_.median();
        for (int s = 0; s < sim::kSlotsPerWeek; ++s) {
            out.weekly_[s] =
                weeklyTick_[s] >= 0 ? weeklyLatest_[s] : fallback;
        }
        return out;
      }
      case TemplateStrategy::DailyMed:
      case TemplateStrategy::DailyMax: {
        const bool use_max = strategy == TemplateStrategy::DailyMax;
        auto aggregate = [use_max](const SortedBag &bucket,
                                   double fallback) {
            if (bucket.empty())
                return fallback;
            return use_max ? bucket.max() : bucket.median();
        };
        const double fallback = all_.median();
        out.weekday_.resize(sim::kSlotsPerDay);
        out.weekend_.resize(sim::kSlotsPerDay);
        for (int s = 0; s < sim::kSlotsPerDay; ++s) {
            out.weekday_[s] = aggregate(weekday_[s], fallback);
            out.weekend_[s] =
                aggregate(weekend_[s], out.weekday_[s]);
        }
        return out;
      }
    }
    return out;
}

} // namespace core
} // namespace soc
