/**
 * @file
 * Hierarchical gOA budget tier: rack -> row -> zone.
 *
 * A flat BudgetAllocator split prices a zone at O(servers x slots)
 * per recompute.  At fleet scale (thousands of racks) the gOA
 * instead splits in two coarse stages over *aggregated* profiles:
 *
 *   zone limit --(split over row aggregates)--> row budgets
 *   row budget --(split over rack aggregates)--> rack budgets
 *
 * where a rack aggregate sums its servers' power / overclocked-core
 * / requested-core templates (utilization is averaged) and a row
 * aggregate does the same over its racks.  Each per-rack gOA then
 * splits its own rack budget across its servers exactly as today,
 * on its own (staggered) schedule.
 *
 * Costs per recompute, with R racks of s servers grouped into rows
 * of k racks, over the 576 day-row slots
 * (ProfileTemplate::kDayRowSlots — every profile repeats daily):
 *
 *  - aggregation: O(s x slots) per rack whose profiles changed
 *    since the last recompute (dirty tracking — unchanged racks
 *    reuse their aggregate);
 *  - splits: O((R/k + R) x slots), independent of the server count.
 *
 * The safety margin is applied once, at the zone level; the
 * intermediate splits use BudgetAllocator::splitDayRowsInto, which
 * consumes per-slot limits as-is.  Everything is a pure function of
 * the registered profiles and the zone limit: recompute(), run
 * incrementally after any sequence of setRackProfiles calls, yields
 * budgets bit-identical to a freshly built hierarchy over the same
 * inputs (enforced by tests/core/budget_hierarchy_test.cc).
 */

#ifndef SOC_CORE_BUDGET_HIERARCHY_HH
#define SOC_CORE_BUDGET_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "core/budget_allocator.hh"

namespace soc
{
namespace core
{

/** Shape and pricing knobs of the rack/row/zone tier. */
struct HierarchyConfig {
    /** Racks per row; the zone splits across ceil(racks / this). */
    int racksPerRow = 8;
    /** Allocator knobs; safetyFraction is applied once, zone-level. */
    BudgetConfig budget;
};

/**
 * Sums member profiles' predictions slot by slot into one aggregate
 * profile, stored as day rows: power and core counts add,
 * utilization is the members' mean.  Members must repeat daily (a
 * Weekly template throws std::invalid_argument).  The reduction
 * both hierarchy tiers use, exposed so a per-rack gOA can
 * pre-aggregate its own servers where the profiles live (trace sim
 * hot path) and hand the hierarchy one profile per rack instead of
 * servers-per-rack of them.
 * Allocation-free after the first aggregate() (scratch retained).
 */
class ProfileAggregator
{
  public:
    /** Aggregate @p count member profiles into @p out (whose
     *  templates are overwritten in place). */
    void aggregate(const ServerProfile *members, std::size_t count,
                   ServerProfile &out);

  private:
    std::vector<double> power_;
    std::vector<double> util_;
    std::vector<double> oc_;
    std::vector<double> req_;
    /** One template's day rows, reused across members
     *  (fillDayRows). */
    std::vector<double> row_;
};

/**
 * Fleet-scale budget splitter over rack/row aggregates; see the
 * file comment.  Deterministic: no clocks, no RNG, iteration in
 * rack-id order.
 */
class BudgetHierarchy
{
  public:
    /** Recompute-cost counters, for tests and the bench driver. */
    struct Stats {
        /** Rack aggregates rebuilt (== dirty racks seen). */
        std::uint64_t rackAggregations = 0;
        /** Row aggregates rebuilt. */
        std::uint64_t rowAggregations = 0;
        /** Allocator splits performed (zone + per-row). */
        std::uint64_t splits = 0;
    };

    BudgetHierarchy(const power::PowerModel &model,
                    HierarchyConfig config = {});

    /**
     * Register a rack with its per-server profiles; returns the
     * rack id (sequential).  Racks fill rows in id order: rack r
     * belongs to row r / racksPerRow.
     */
    int addRack(std::vector<ServerProfile> profiles);

    /** Replace one rack's server profiles (after a telemetry pull);
     *  marks the rack dirty for the next recompute. */
    void setRackProfiles(int rack,
                         std::vector<ServerProfile> profiles);

    /**
     * Register a rack by its pre-built aggregate profile (one
     * ProfileAggregator reduction over its servers) instead of the
     * per-server profiles; returns the rack id.  The externally
     * aggregated form the trace sim uses: the per-rack gOAs own the
     * server profiles and push fresh aggregates each recompute tick
     * through exchangeRackAggregate, so the hierarchy never stores
     * per-server state.  A default-constructed aggregate is allowed
     * at registration (it reads as an idle rack until the first
     * exchange).  Aggregate racks and addRack racks must not be
     * mixed in one hierarchy (asserted).
     */
    int addRackAggregate(ServerProfile aggregate);

    /**
     * Swap in @p aggregate as rack @p rack's current aggregate
     * profile (the previous one is swapped out into @p aggregate for
     * the caller to reuse — zero steady-state allocation) and mark
     * its row dirty.  Only valid for addRackAggregate racks.
     */
    void exchangeRackAggregate(int rack, ServerProfile &aggregate);

    /**
     * Rebuild dirty aggregates and re-split @p zoneLimit down to
     * per-rack budgets.  Splits always rerun (the limit may have
     * changed); aggregation cost scales with the dirty racks only.
     */
    void recompute(power::Watts zoneLimit);

    /** Budget template of @p rack, as day rows (valid after
     *  recompute). */
    const ProfileTemplate &rackBudget(int rack) const
    {
        const auto r = static_cast<std::size_t>(rack);
        const auto k = static_cast<std::size_t>(config_.racksPerRow);
        return rackBudgets_[r / k][r % k];
    }

    std::size_t racks() const { return rackProfiles_.size(); }
    std::size_t rows() const { return rowCount_; }
    const Stats &stats() const { return stats_; }

  private:
    const power::PowerModel &model_;
    HierarchyConfig config_;
    BudgetAllocator allocator_;

    /** Per-rack server profiles, by rack id. */
    std::vector<std::vector<ServerProfile>> rackProfiles_;
    /** Racks whose aggregate is stale. */
    std::vector<bool> rackDirty_;
    /** True once addRackAggregate was used (aggregates are pushed
     *  from outside; step 1 of recompute never runs). */
    bool externalAggregates_ = false;
    /** Rack-level aggregates, grouped by row (rack r sits at
     *  [r / racksPerRow][r % racksPerRow]) so each row's members
     *  feed the allocator contiguously, copy-free. */
    std::vector<std::vector<ServerProfile>> rackAggregates_;
    /** Row-level aggregates, by row id. */
    std::vector<ServerProfile> rowAggregates_;
    /** Rows whose aggregate is stale. */
    std::vector<bool> rowDirty_;
    std::size_t rowCount_ = 0;

    /** Outputs of the last recompute (rack budgets grouped like
     *  rackAggregates_). */
    std::vector<ProfileTemplate> rowBudgets_;
    std::vector<std::vector<ProfileTemplate>> rackBudgets_;

    /** Scratch reused across recomputes (allocation-free steady
     *  state; the splits keep theirs per thread). */
    ProfileAggregator aggregator_;
    std::vector<double> limitRow_;

    Stats stats_;
};

} // namespace core
} // namespace soc

#endif // SOC_CORE_BUDGET_HIERARCHY_HH
