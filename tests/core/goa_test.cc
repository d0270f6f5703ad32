/** @file Behavioural tests for the Global Overclocking Agent. */

#include <gtest/gtest.h>
#include <malloc.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/goa.hh"

using namespace soc;
using namespace soc::core;
using sim::kMinute;
using sim::Tick;

namespace
{

const power::PowerModel &
model()
{
    static const power::PowerModel instance;
    return instance;
}

struct Fixture {
    power::Rack rack{0, power::Watts{1500.0}};
    std::vector<std::unique_ptr<ServerOverclockingAgent>> soas;
    std::vector<power::GroupId> vms;
    GlobalOverclockingAgent goa{rack, model()};

    explicit Fixture(int servers = 2)
    {
        for (int i = 0; i < servers; ++i) {
            power::Server &server = rack.addServer(&model());
            vms.push_back(
                server.addGroup(8, 0.3 + 0.2 * i, power::kTurboMHz,
                                1));
            soas.push_back(
                std::make_unique<ServerOverclockingAgent>(
                    server, SoaConfig{}, &rack));
            goa.addAgent(soas.back().get());
        }
    }
};

} // namespace

TEST(Goa, EvenSplitAssignsEqualBudgets)
{
    Fixture fx;
    fx.goa.assignEvenSplit();
    EXPECT_NEAR(fx.soas[0]->budgetWatts(0).count(), 750.0, 1e-9);
    EXPECT_NEAR(fx.soas[1]->budgetWatts(0).count(), 750.0, 1e-9);
    EXPECT_EQ(fx.goa.lastBudgets().size(), 2u);
}

TEST(Goa, RecomputeProducesHeterogeneousBudgets)
{
    Fixture fx;
    fx.goa.assignEvenSplit();

    // Collect telemetry: server 1 requests overclocking, server 0
    // does not; the recompute must favour server 1's demand.
    OverclockRequest req;
    req.cores = 8;
    req.groupId = fx.vms[1];
    req.duration = 4 * sim::kHour;
    fx.soas[1]->requestOverclock(req, 0);
    for (Tick t = 0; t < 2 * sim::kHour; t += kMinute) {
        fx.soas[0]->tick(t);
        fx.soas[1]->tick(t);
    }

    fx.goa.recompute(2 * sim::kHour);
    EXPECT_EQ(fx.goa.recomputeCount(), 1u);
    // Server 1 draws more (util 0.5 vs 0.3, plus overclock) and has
    // all the demand: its budget must exceed server 0's.
    const Tick probe = sim::kHour;
    EXPECT_GT(fx.soas[1]->budgetWatts(probe),
              fx.soas[0]->budgetWatts(probe));
}

TEST(Goa, BudgetsRespectRackLimit)
{
    Fixture fx(3);
    fx.goa.assignEvenSplit();
    for (Tick t = 0; t < sim::kHour; t += kMinute)
        for (auto &soa : fx.soas)
            soa->tick(t);
    fx.goa.recompute(sim::kHour);
    for (Tick t = 0; t < sim::kWeek; t += 37 * kMinute) {
        double sum = 0.0;
        for (const auto &b : fx.goa.lastBudgets())
            sum += b.predict(t);
        EXPECT_LE(sum, fx.rack.limitWatts().count() + 1e-6);
    }
}

TEST(Goa, RecomputeRefreshesOwnTemplates)
{
    // After a recompute, sOAs can do look-ahead admission: verify
    // the profile-based budget responds to the collected history
    // rather than staying at the bootstrap even split.
    Fixture fx;
    fx.goa.assignEvenSplit();
    const power::Watts even = fx.soas[0]->budgetWatts(0);
    for (Tick t = 0; t < sim::kHour; t += kMinute)
        for (auto &soa : fx.soas)
            soa->tick(t);
    fx.goa.recompute(sim::kHour);
    EXPECT_NE(fx.soas[0]->budgetWatts(2 * sim::kHour), even);
}

TEST(Goa, TwoPhaseConstantRowMatchesRecompute)
{
    // The hierarchical two-phase recompute (pullProfiles +
    // recomputeWithBudget) fed a constant usable row of the rack
    // limit minus the safety margin is the flat recompute(now) bit
    // for bit: a rack that is its own zone needs no second path.
    Fixture flat(3);
    Fixture two_phase(3);
    for (Fixture *fx : {&flat, &two_phase}) {
        fx->goa.assignEvenSplit();
        OverclockRequest req;
        req.cores = 8;
        req.groupId = fx->vms[1];
        req.duration = 4 * sim::kHour;
        fx->soas[1]->requestOverclock(req, 0);
        for (Tick t = 0; t < 3 * sim::kHour; t += kMinute)
            for (auto &soa : fx->soas)
                soa->tick(t);
    }

    const Tick now = 3 * sim::kHour;
    flat.goa.recompute(now);
    two_phase.goa.pullProfiles();
    const std::vector<double> row(
        static_cast<std::size_t>(sim::kSlotsPerWeek),
        two_phase.rack.limitWatts().count() *
            (1.0 - two_phase.goa.config().budget.safetyFraction));
    two_phase.goa.recomputeWithBudget(now, row);

    ASSERT_EQ(flat.goa.lastBudgets().size(), 3u);
    ASSERT_EQ(two_phase.goa.lastBudgets().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(flat.goa.lastBudgets()[i] ==
                    two_phase.goa.lastBudgets()[i])
            << "server " << i;
        EXPECT_EQ(flat.soas[i]->lastAssignmentAt(), now);
        EXPECT_EQ(two_phase.soas[i]->lastAssignmentAt(), now);
        for (int slot = 0; slot < sim::kSlotsPerWeek; ++slot) {
            const Tick t = now + slot * sim::kSlot;
            EXPECT_EQ(flat.soas[i]->budgetWatts(t).count(),
                      two_phase.soas[i]->budgetWatts(t).count())
                << "server " << i << " slot " << slot;
        }
    }
    // The recompute actually moved off the bootstrap even split.
    EXPECT_FALSE(flat.goa.lastBudgets()[0] ==
                 flat.goa.lastBudgets()[1]);
}

TEST(Goa, ResidentHeapPerServerIsBounded)
{
    // What a rack keeps between recomputes (its gOA, sOAs and
    // servers) after a day of telemetry and two recomputes, per
    // server.  The split's working memory is per thread, so the rack
    // is driven on a worker thread whose scratch dies with it.
    // Heap in use: arena chunks plus mmap'd ones, over all arenas.
    auto heap_in_use = [] {
        const struct mallinfo2 info = mallinfo2();
        return static_cast<long long>(info.uordblks + info.hblkhd);
    };
    constexpr int kServers = 8;
    const long long before = heap_in_use();
    std::unique_ptr<Fixture> fx;
    std::thread driver([&] {
        fx = std::make_unique<Fixture>(kServers);
        fx->goa.assignEvenSplit();
        for (Tick t = 0; t < sim::kDay; t += kMinute) {
            for (auto &soa : fx->soas)
                soa->tick(t);
            if (t == sim::kDay / 2)
                fx->goa.recompute(t);
        }
        fx->goa.recompute(sim::kDay);
    });
    driver.join();
    ASSERT_EQ(fx->goa.recomputeCount(), 2u);
    const long long per_server =
        (heap_in_use() - before) / kServers;
    // About 74 KiB today.  Budgets stored as 2,016-slot weeks
    // (+23 KiB for the gOA's and the sOA's copy), a second profile
    // copy (+18 KiB) or gOA-held split scratch (+47 KiB) would each
    // break this bound.
    EXPECT_LE(per_server, 88 * 1024)
        << "resident heap per server: " << per_server << " B";
}
