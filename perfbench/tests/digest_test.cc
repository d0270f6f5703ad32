/**
 * @file
 * Self-tests of the benchmark's correctness gate: the fleet_12h
 * digest must not depend on thread count or stream-window size, its
 * pinned value must match, and the digest must see every
 * simulation-state field while ignoring the host-time timers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "digest.hh"
#include "sim/time.hh"
#include "workloads.hh"

using namespace socbench;
using namespace soc;

namespace
{

int
nproc()
{
    return std::max(2, static_cast<int>(
                           std::thread::hardware_concurrency()));
}

std::uint64_t
fleetDigest(int threads, sim::Tick streamWindow)
{
    auto w = makeWorkload("fleet_12h", 101, threads);
    EXPECT_TRUE(w.has_value());
    w->trace.streamWindow = streamWindow;
    return digest(cluster::runTraceSim(w->trace));
}

} // namespace

TEST(SocbenchDigest, Fleet12hInvariantToThreadsAndStreamWindow)
{
    const std::uint64_t one_thread = fleetDigest(1, sim::kDay);
    EXPECT_EQ(one_thread, fleetDigest(nproc(), sim::kDay));
    EXPECT_EQ(one_thread, fleetDigest(nproc(), 6 * sim::kHour));
    const auto pinned = pinnedDigest("fleet_12h", 101);
    ASSERT_TRUE(pinned.has_value());
    EXPECT_EQ(one_thread, *pinned);
}

TEST(SocbenchDigest, TraceDigestSeesStateNotTimers)
{
    cluster::TraceSimResult base;
    const std::uint64_t d = digest(base);

    auto timers = base;
    timers.genSeconds = 1.0;
    timers.simSeconds = 2.0;
    timers.hierSeconds = 3.0;
    EXPECT_EQ(d, digest(timers));

    auto caps = base;
    caps.capEvents = 1;
    EXPECT_NE(d, digest(caps));
    auto recovery = base;
    recovery.meanRecoveryS = 0.5;
    EXPECT_NE(d, digest(recovery));
    auto reason = base;
    reason.ingress.rejectsByReason.back() = 1;
    EXPECT_NE(d, digest(reason));
    auto hierarchy = base;
    hierarchy.hierarchyStats.splits = 1;
    EXPECT_NE(d, digest(hierarchy));
}

TEST(SocbenchDigest, ServiceDigestSeesEveryClass)
{
    cluster::ServiceSimResult base;
    const std::uint64_t d = digest(base);
    for (std::size_t c = 0; c < base.byClass.size(); ++c) {
        auto changed = base;
        changed.byClass[c].p99Ms = 1.0;
        EXPECT_NE(d, digest(changed)) << "class " << c;
    }
    auto faults = base;
    faults.faults.budgetRejects = 1;
    EXPECT_NE(d, digest(faults));
}

TEST(SocbenchWorkloads, NamesResolveAndUnknownIsRejected)
{
    for (const auto &name : workloadNames()) {
        const auto w = makeWorkload(name, 1, 4);
        ASSERT_TRUE(w.has_value()) << name;
        EXPECT_GT(w->servers, 0);
        EXPECT_GT(w->serverHours, 0.0);
        if (w->isService)
            EXPECT_NO_THROW(w->service.validate());
        else
            EXPECT_NO_THROW(w->trace.validate());
    }
    EXPECT_FALSE(makeWorkload("fleet_13h", 1, 4).has_value());
}
