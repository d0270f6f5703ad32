/**
 * @file
 * Incremental, exact power-template maintenance (§IV-B DailyMed
 * aggregation made an always-on path).  The online agents only ever
 * ask for DailyMed templates, so that is the one strategy this
 * aggregator assembles; the other four strategies exist only in the
 * batch ProfileTemplate::build (Fig. 15 and the reference the tests
 * compare against).
 *
 * ProfileTemplate::build scans a server's *entire* telemetry history
 * on every call: with weekly recomputes over an unbounded history
 * the per-recompute cost grows O(t) and the whole-run cost O(t²) per
 * rack.  SlotAggregator bounds both the rebuild cost and the
 * resident footprint with a two-mode representation:
 *
 *  - **Ring mode** (small retained sets, the fleet-replay steady
 *    state): the only per-sample state is a window-bounded
 *    arrival-order ring of values — 8 B per retained slot, the
 *    ticks being implied by the front sample's tick and the slot
 *    stride.  build() gathers each slot-of-day's samples, one day
 *    (kSlotsPerDay entries) apart, with a stride and sorts each tiny
 *    weekday and weekend bucket; the all-samples fallback median is
 *    sorted only when some weekday bucket is empty.  build() runs
 *    only at recompute boundaries, so sorting there is cheaper than
 *    keeping sorted buckets resident (~1.5 KB per retained slot per
 *    server, 280k+ aggregators at paper scale).
 *  - **Indexed mode** (retention beyond kIndexThreshold slots —
 *    unbounded or multi-week windows): the ring is replayed once
 *    into one sorted bag per bucket, and add()/evictions maintain
 *    them from then on, marking each bag they touch.  build()
 *    rewrites only the touched slots of the cached template, so it
 *    costs O(changed buckets) no matter how long the history grows
 *    — the recompute-vs-horizon bench gates this.  While a weekday
 *    bucket is empty its value is the all-samples median, which
 *    every sample moves, so build() rewrites every slot.
 *
 * Both modes assemble templates **bit-identical** to
 * ProfileTemplate::build(DailyMed) over the retained history —
 * enforced by test, so the mode switch is a pure representation
 * change, never a behavior change.
 *
 * A version counter increments on every accepted sample (and every
 * eviction); build() caches the assembled template and
 * returns it untouched while the version is unchanged, which makes
 * back-to-back gOA recomputes with no newly closed slot O(1).
 *
 * Samples must arrive on contiguous slots (each add() exactly
 * kSlot after the previous one; the sOA replays its last averages
 * over slots it did not observe), which is what lets the ring hold
 * values without ticks.  add() rejects anything else.
 *
 * An optional window (0 = unbounded, the default) evicts samples
 * older than the window behind the newest sample, bounding memory
 * and matching the paper's prior-week semantics when set to
 * sim::kWeek.  With a window W, the retained set after adding the
 * sample at tick t is exactly the samples whose slot start lies in
 * [t + kSlot - W, t] — i.e. build() equals the batch builder over
 * history.slice(end - W, end).
 */

#ifndef SOC_CORE_SLOT_AGGREGATOR_HH
#define SOC_CORE_SLOT_AGGREGATOR_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/profile_template.hh"
#include "sim/time.hh"

namespace soc
{
namespace core
{

/**
 * Exact incremental DailyMed slot aggregation with template
 * caching over a contiguous slot stream, stored as a value-only
 * ring.  Not thread-safe; each sOA owns its aggregators (they are
 * its only telemetry history).  Assembly keeps no shared or
 * thread-local state, so distinct aggregators may build
 * concurrently from distinct threads.
 */
class SlotAggregator
{
  public:
    /**
     * Retained-sample count past which the aggregator switches from
     * the ring-only representation to incremental index
     * maintenance.  Three weeks: comfortably above the one-week
     * window the fleet replay uses (those aggregators never pay for
     * the index), comfortably below the multi-week histories where
     * an O(retained) rebuild would start to dominate recomputes.
     */
    static constexpr std::size_t kIndexThreshold =
        static_cast<std::size_t>(3 * sim::kSlotsPerWeek);

    /**
     * @param window Eviction horizon; 0 keeps every sample forever
     *               (bit-identical to the unbounded batch builder).
     *               Must otherwise be a positive multiple of
     *               sim::kSlot.
     */
    explicit SlotAggregator(sim::Tick window = 0);

    /**
     * Fold in the sample of the slot starting at @p t.  The first
     * sample (of a fresh or clear()ed aggregator) may start at any
     * tick; every later one must start exactly sim::kSlot after the
     * previous one (the sOA feeds slots in the order they close,
     * gaps filled).  @p value must be finite: NaN/Inf telemetry
     * would corrupt the sort-based bucket aggregation (ordering
     * comparisons stop meaning anything).  A gap, a repeated or
     * backward tick, or a non-finite value is rejected with
     * std::invalid_argument and leaves the aggregator unchanged —
     * the same fail-at-ingestion stance as BudgetAssignment
     * validation.
     */
    void add(sim::Tick t, double value);

    /** Forget everything (sOA crash-restart); the next add() may
     *  start the ring at any tick. */
    void clear();

    sim::Tick window() const { return window_; }
    bool empty() const { return samples_.empty(); }
    std::size_t sampleCount() const { return samples_.size(); }

    /** Monotonic counter bumped by every add() and eviction. */
    std::uint64_t version() const { return version_; }

    /**
     * DailyMed template over the retained samples, bit-identical to
     * ProfileTemplate::build(DailyMed, retained history).  Cached:
     * repeated calls at an unchanged version return the same object
     * without rebuilding.
     */
    const ProfileTemplate &build() const;

    /** Cache misses so far (tests assert cache-hit behavior). */
    std::uint64_t rebuildCount() const { return rebuilds_; }

  private:
    /**
     * Sorted multiset on a vector with a lazily merged unsorted
     * tail (indexed mode only).  insert() is an O(1) append; the
     * tail is folded into the sorted body when it grows past
     * kMaxPending (amortizing the memmove-heavy sorted insertion
     * that used to cost O(bag) per sample) or when an ordered read
     * needs it.  The vectors are mutable because flushing is a pure
     * representation change: the multiset the bag denotes — and
     * thus every median() — is identical before and after.
     */
    struct SortedBag {
        /** Sorted body. */
        mutable std::vector<double> values;
        /** Unsorted recent tail, bounded by kMaxPending. */
        mutable std::vector<double> pending;
        /** Changed since build() last read it into the cache. */
        mutable bool touched = false;

        static constexpr std::size_t kMaxPending = 128;

        void insert(double v)
        {
            touched = true;
            pending.push_back(v);
            if (pending.size() >= kMaxPending)
                flushPending();
        }
        void erase(double v);
        bool empty() const
        {
            return values.empty() && pending.empty();
        }
        /** Matches sim::median bit for bit. */
        double median() const;

      private:
        void flushPending() const;
    };

    void evictOlderThan(sim::Tick cutoff);
    /** The indexed bucket of the sample at @p t. */
    SortedBag &bucketAt(sim::Tick t);
    /** Replay the ring into the indexed structures (mode switch). */
    void buildIndex();
    /** Median of every retained sample: the value of a weekday
     *  slot no sample fell on. */
    double allSamplesMedian() const;
    ProfileTemplate assembleFromRing() const;
    /** Rewrite the touched slots of cache_ from the bags. */
    void refreshFromIndex() const;

    sim::Tick window_;
    std::uint64_t version_ = 0;

    /** Tick of samples_.front(); sample i covers the slot starting
     *  at firstTick_ + i * kSlot.  The window is at least one slot,
     *  so the ring is empty only when fresh or clear()ed. */
    sim::Tick firstTick_ = 0;
    /** Retained sample values in arrival (= tick) order — the
     *  complete per-sample state in ring mode, and the eviction log
     *  in indexed mode. */
    std::deque<double> samples_;

    /** True once the retained set crossed kIndexThreshold and the
     *  incremental structures below took over (sticky until
     *  clear()). */
    bool indexed_ = false;
    /*
     * The indexed stores below stay unallocated until buildIndex()
     * runs, so ring-mode aggregators (all of them at fleet scale)
     * pay nothing for the indexed path.
     */
    std::vector<SortedBag> weekday_; // kSlotsPerDay buckets
    std::vector<SortedBag> weekend_; // kSlotsPerDay buckets

    /** Last assembled template and the version it was built at. */
    mutable ProfileTemplate cache_;
    mutable std::uint64_t cacheVersion_ = 0;
    mutable bool cacheValid_ = false;
    mutable std::uint64_t rebuilds_ = 0;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_SLOT_AGGREGATOR_HH
