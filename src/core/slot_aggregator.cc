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
    // Replaying the ring leaves the indexed structures exactly as
    // if they had been maintained from the retained samples all
    // along: bag contents are multisets (the sorted-body/pending
    // split is representation only).
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
    ++version_;
}

const ProfileTemplate &
SlotAggregator::build() const
{
    if (!cacheValid_ || cacheVersion_ != version_) {
        cache_ = indexed_ ? assembleFromIndex() : assembleFromRing();
        cacheVersion_ = version_;
        cacheValid_ = true;
        ++rebuilds_;
    }
    return cache_;
}

ProfileTemplate
SlotAggregator::assembleFromRing() const
{
    // Field-for-field mirror of ProfileTemplate::build(DailyMed)
    // over the retained samples; the equivalence tests hold the two
    // bit-identical.
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
    out.strategy_ = TemplateStrategy::DailyMed;
    if (empty())
        return out;

    // All retained values, sorted: the empty-bucket fallback median.
    thread_local std::vector<double> all_sorted;
    all_sorted.assign(samples_.begin(), samples_.end());
    std::sort(all_sorted.begin(), all_sorted.end());

    // Scatter the ring into per-(weekday|weekend)×slot buckets in
    // arrival order, then sort each bucket: the same sorted arrays
    // the batch builder derives, at build time instead of
    // incrementally.
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
        const auto slot = static_cast<std::size_t>(sim::slotOfDay(t));
        (sim::isWeekend(t) ? weekend : weekday)[slot].push_back(
            value);
        t += sim::kSlot;
    }
    const double fallback = sortedMedian(all_sorted);
    auto aggregate = [](std::vector<double> &bucket, double fb) {
        if (bucket.empty())
            return fb;
        std::sort(bucket.begin(), bucket.end());
        return sortedMedian(bucket);
    };
    out.weekday_.resize(sim::kSlotsPerDay);
    out.weekend_.resize(sim::kSlotsPerDay);
    for (int s = 0; s < sim::kSlotsPerDay; ++s) {
        const auto slot = static_cast<std::size_t>(s);
        out.weekday_[s] = aggregate(weekday[slot], fallback);
        out.weekend_[s] = aggregate(weekend[slot], out.weekday_[s]);
    }
    return out;
}

ProfileTemplate
SlotAggregator::assembleFromIndex() const
{
    // Same mirror of ProfileTemplate::build(DailyMed), read from the
    // incrementally maintained bags: every bag read flushes first,
    // so medians come off the same sorted multisets the ring-mode
    // scatter would produce.
    ProfileTemplate out;
    out.strategy_ = TemplateStrategy::DailyMed;
    if (empty())
        return out;

    auto aggregate = [](const SortedBag &bucket, double fallback) {
        return bucket.empty() ? fallback : bucket.median();
    };
    const double fallback = all_.median();
    out.weekday_.resize(sim::kSlotsPerDay);
    out.weekend_.resize(sim::kSlotsPerDay);
    for (int s = 0; s < sim::kSlotsPerDay; ++s) {
        out.weekday_[s] = aggregate(weekday_[s], fallback);
        out.weekend_[s] = aggregate(weekend_[s], out.weekday_[s]);
    }
    return out;
}

} // namespace core
} // namespace soc
