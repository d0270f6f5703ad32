#include "core/slot_aggregator.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
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

/** Sort @p bucket (std::sort, as every assembly path always has)
 *  and return its median. */
double
sortAndMedian(std::vector<double> &bucket)
{
    std::sort(bucket.begin(), bucket.end());
    return sortedMedian(bucket);
}

} // namespace

void
SlotAggregator::SortedBag::erase(double v)
{
    touched = true;
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
    if (!pending.empty())
        flushPending();
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
        bucketAt(t).insert(value);
    else if (samples_.size() > kIndexThreshold)
        buildIndex();
    ++version_;
    if (window_ > 0)
        evictOlderThan(t + sim::kSlot - window_);
}

SlotAggregator::SortedBag &
SlotAggregator::bucketAt(sim::Tick t)
{
    const auto slot = static_cast<std::size_t>(sim::slotOfDay(t));
    return sim::isWeekend(t) ? weekend_[slot] : weekday_[slot];
}

void
SlotAggregator::buildIndex()
{
    indexed_ = true;
    weekday_.assign(static_cast<std::size_t>(sim::kSlotsPerDay),
                    SortedBag{});
    weekend_.assign(static_cast<std::size_t>(sim::kSlotsPerDay),
                    SortedBag{});
    // Replaying the ring leaves the indexed structures exactly as
    // if they had been maintained from the retained samples all
    // along: bag contents are multisets (the sorted-body/pending
    // split is representation only).  Every bag that receives a
    // sample is touched, so the next build() rewrites every slot
    // the ring-mode cache may hold stale.
    sim::Tick t = firstTick_;
    for (const double value : samples_) {
        bucketAt(t).insert(value);
        t += sim::kSlot;
    }
}

void
SlotAggregator::evictOlderThan(sim::Tick cutoff)
{
    while (!samples_.empty() && firstTick_ < cutoff) {
        if (indexed_)
            bucketAt(firstTick_).erase(samples_.front());
        samples_.pop_front();
        firstTick_ += sim::kSlot;
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
    weekday_ = {};
    weekend_ = {};
    ++version_;
}

const ProfileTemplate &
SlotAggregator::build() const
{
    if (!cacheValid_ || cacheVersion_ != version_) {
        // Ring mode hands back a fresh template: rewriting the
        // cached rows in place measured a larger fleet peak RSS.
        if (indexed_)
            refreshFromIndex();
        else
            cache_ = assembleFromRing();
        cacheVersion_ = version_;
        cacheValid_ = true;
        ++rebuilds_;
    }
    return cache_;
}

double
SlotAggregator::allSamplesMedian() const
{
    std::vector<double> all(samples_.begin(), samples_.end());
    return sortAndMedian(all);
}

ProfileTemplate
SlotAggregator::assembleFromRing() const
{
    // Field-for-field mirror of ProfileTemplate::build(DailyMed)
    // over the retained samples; the equivalence tests hold the two
    // bit-identical.
    ProfileTemplate out;
    out.strategy_ = TemplateStrategy::DailyMed;
    if (empty())
        return out;

    // Sample i covers slot-of-day (first_slot + i) mod kSlotsPerDay
    // (a day is a whole number of slots, so an off-grid first tick
    // keeps its offset): slot s's samples start at index
    // (s - first_slot) mod kSlotsPerDay, on the day after the first
    // sample's when s < first_slot, and follow one day apart.
    // Gathered in arrival order and sorted with std::sort, they are
    // the sorted arrays the batch builder derives.
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    const std::size_t n = samples_.size();
    const auto first_slot =
        static_cast<std::size_t>(sim::slotOfDay(firstTick_));
    const int first_dow = sim::dayOfWeek(firstTick_);
    std::vector<double> weekday;
    std::vector<double> weekend;
    weekday.reserve(n / day + 1);
    weekend.reserve(n / day + 1);
    std::optional<double> fallback;
    out.weekday_.resize(day);
    out.weekend_.resize(day);
    for (std::size_t s = 0; s < day; ++s) {
        weekday.clear();
        weekend.clear();
        int dow = s < first_slot ? (first_dow + 1) % 7 : first_dow;
        for (std::size_t i = (s + day - first_slot) % day; i < n;
             i += day) {
            // Days 5 and 6 are the weekend (sim::isWeekend).
            (dow >= 5 ? weekend : weekday).push_back(samples_[i]);
            dow = dow == 6 ? 0 : dow + 1;
        }
        if (weekday.empty() && !fallback)
            fallback = allSamplesMedian();
        out.weekday_[s] =
            weekday.empty() ? *fallback : sortAndMedian(weekday);
        out.weekend_[s] =
            weekend.empty() ? out.weekday_[s] : sortAndMedian(weekend);
    }
    return out;
}

void
SlotAggregator::refreshFromIndex() const
{
    // Same mirror, read from the bags (every median flushes first).
    // A slot whose two bags nothing touched since the last refresh
    // keeps its cached values, unless some weekday value is the
    // all-samples fallback, which moves with every sample: then, and
    // when the cache has no rows yet, every slot is rewritten.
    const auto day = static_cast<std::size_t>(sim::kSlotsPerDay);
    const bool any_empty =
        std::any_of(weekday_.begin(), weekday_.end(),
                    [](const SortedBag &bag) { return bag.empty(); });
    const bool every_slot = any_empty || cache_.weekday_.size() != day;
    const double fallback = any_empty ? allSamplesMedian() : 0.0;
    if (every_slot) {
        cache_ = ProfileTemplate();
        cache_.strategy_ = TemplateStrategy::DailyMed;
        cache_.weekday_.resize(day);
        cache_.weekend_.resize(day);
    }
    for (std::size_t s = 0; s < day; ++s) {
        const SortedBag &wd = weekday_[s];
        const SortedBag &we = weekend_[s];
        if (!every_slot && !wd.touched && !we.touched)
            continue;
        wd.touched = false;
        we.touched = false;
        cache_.weekday_[s] = wd.empty() ? fallback : wd.median();
        cache_.weekend_[s] =
            we.empty() ? cache_.weekday_[s] : we.median();
    }
}

} // namespace core
} // namespace soc
