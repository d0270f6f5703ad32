/** @file Unit and property tests for the synthetic trace generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/profile_template.hh"
#include "sim/quant.hh"
#include "workload/trace_generator.hh"

using namespace soc;
using namespace soc::workload;

namespace
{

TraceConfig
shortConfig()
{
    TraceConfig cfg;
    cfg.end = 2 * sim::kWeek;
    return cfg;
}

} // namespace

TEST(TraceGenerator, DeterministicForSeed)
{
    TraceGenerator a(42, shortConfig());
    TraceGenerator b(42, shortConfig());
    const auto sa = a.utilSeries(serviceA());
    const auto sb = b.utilSeries(serviceA());
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
        ASSERT_EQ(sa.at(i), sb.at(i));
}

TEST(TraceGenerator, DifferentSeedsDiffer)
{
    TraceGenerator a(1, shortConfig());
    TraceGenerator b(2, shortConfig());
    const auto sa = a.utilSeries(serviceA());
    const auto sb = b.utilSeries(serviceA());
    int diff = 0;
    for (std::size_t i = 0; i < sa.size(); ++i)
        if (sa.at(i) != sb.at(i))
            ++diff;
    EXPECT_GT(diff, static_cast<int>(sa.size()) / 2);
}

TEST(TraceGenerator, SeriesCoversConfiguredSpan)
{
    TraceGenerator gen(3, shortConfig());
    const auto series = gen.utilSeries(serviceB());
    EXPECT_EQ(series.size(),
              static_cast<std::size_t>(2 * sim::kSlotsPerWeek));
    EXPECT_EQ(series.interval(), sim::kSlot);
}

TEST(TraceGenerator, UtilStaysInUnitRange)
{
    TraceGenerator gen(4, shortConfig());
    for (const auto &arch : {serviceA(), serviceB(), mlTraining()}) {
        const auto series = gen.utilSeries(arch);
        for (double v : series.values()) {
            ASSERT_GE(v, 0.0);
            ASSERT_LE(v, 1.0);
        }
    }
}

TEST(TraceGenerator, WeekOverWeekRepeatability)
{
    // The core property behind Fig. 8: a DailyMed template built on
    // week 1 predicts week 2 with small error relative to the mean.
    TraceConfig cfg;
    cfg.end = 2 * sim::kWeek;
    TraceGenerator gen(5, cfg);
    const power::PowerModel model;
    const auto trace = gen.serverTrace(gen.randomVmMix(64), model);

    const auto week1 = trace.powerWatts.slice(0, sim::kWeek);
    const auto week2 =
        trace.powerWatts.slice(sim::kWeek, 2 * sim::kWeek);
    const auto tmpl = core::ProfileTemplate::build(
        core::TemplateStrategy::DailyMed, week1);
    const double err = tmpl.rmseAgainst(week2);
    const double mean = week2.stats().mean();
    EXPECT_LT(err / mean, 0.10)
        << "rmse=" << err << " mean=" << mean;
}

TEST(TraceGenerator, RandomVmMixFitsServer)
{
    TraceGenerator gen(6, shortConfig());
    for (int trial = 0; trial < 20; ++trial) {
        const auto mix = gen.randomVmMix(64);
        ASSERT_FALSE(mix.empty());
        int cores = 0;
        for (const auto &vm : mix) {
            ASSERT_GE(vm.cores, 1);
            ASSERT_LE(vm.cores, 8);
            cores += vm.cores;
        }
        ASSERT_LE(cores, 64);
        ASSERT_GE(cores, 40); // decently packed
    }
}

TEST(TraceGenerator, MlHeavyMixIsHot)
{
    TraceGenerator gen(7, shortConfig());
    const auto mix = gen.mlHeavyMix(64);
    ASSERT_FALSE(mix.empty());
    int ml_cores = 0;
    for (const auto &vm : mix)
        if (vm.archetype.kind == ShapeKind::ConstantHigh)
            ml_cores += vm.cores;
    EXPECT_GE(ml_cores, 48);
}

TEST(TraceGenerator, ServerTraceConsistency)
{
    TraceGenerator gen(8, shortConfig());
    const power::PowerModel model;
    const auto mix = gen.randomVmMix(64);
    const auto trace = gen.serverTrace(mix, model);
    ASSERT_EQ(trace.vmUtil.size(), mix.size());
    ASSERT_EQ(trace.serverUtil.size(), trace.powerWatts.size());

    // Server util must be the core-weighted VM utils.
    for (std::size_t i = 0; i < trace.serverUtil.size(); i += 97) {
        double weighted = 0.0;
        for (std::size_t v = 0; v < mix.size(); ++v)
            weighted += mix[v].cores * trace.vmUtil[v].at(i);
        EXPECT_NEAR(trace.serverUtil.at(i), weighted / 64.0, 1e-9);
    }

    // Power must be above idle and below TDP (at turbo).
    for (double w : trace.powerWatts.values()) {
        ASSERT_GE(w, model.params().idleWatts.count());
        ASSERT_LE(w, model.params().tdpWatts.count() + 1e-9);
    }
}

TEST(TraceGenerator, RackPowerSumsServers)
{
    TraceGenerator gen(9, shortConfig());
    const power::PowerModel model;
    std::vector<ServerTrace> traces;
    for (int s = 0; s < 3; ++s)
        traces.push_back(gen.serverTrace(gen.randomVmMix(64), model));
    const auto rack = TraceGenerator::rackPower(traces);
    for (std::size_t i = 0; i < rack.size(); i += 131) {
        double sum = 0.0;
        for (const auto &t : traces)
            sum += t.powerWatts.at(i);
        EXPECT_NEAR(rack.at(i), sum, 1e-9);
    }
}

TEST(TraceGenerator, ServersInRackAreDiverse)
{
    // Fig. 9's premise: per-server power profiles differ materially.
    TraceGenerator gen(10, shortConfig());
    const power::PowerModel model;
    const auto a = gen.serverTrace(gen.randomVmMix(64), model);
    const auto b = gen.serverTrace(gen.randomVmMix(64), model);
    double diff = 0.0;
    for (std::size_t i = 0; i < a.powerWatts.size(); ++i) {
        diff += std::abs(a.powerWatts.at(i) - b.powerWatts.at(i));
    }
    diff /= static_cast<double>(a.powerWatts.size());
    EXPECT_GT(diff, 5.0); // materially apart on average
}

TEST(TraceGenerator, OutlierDaysReduceLoad)
{
    TraceConfig with;
    with.end = 8 * sim::kWeek;
    with.outlierDayProb = 0.5;
    with.outlierScale = 0.2;
    with.surgeDayProb = 0.0;
    TraceConfig without = with;
    without.outlierDayProb = 0.0;
    TraceGenerator gw(11, with);
    TraceGenerator go(11, without);
    const double mean_with =
        gw.utilSeries(serviceA()).stats().mean();
    const double mean_without =
        go.utilSeries(serviceA()).stats().mean();
    EXPECT_LT(mean_with, mean_without);
}

TEST(TraceGenerator, StreamMatchesMaterializedBitIdentically)
{
    // The streaming path must be a drop-in for the materialized one:
    // same parent-stream consumption (so downstream draws agree) and
    // sample-for-sample identical output, however the windows are
    // chunked.  Window sizes are deliberately awkward (prime, not
    // slot-aligned to days) to catch any per-window state reset.
    const power::PowerModel model;
    TraceGenerator materialized(77, shortConfig());
    TraceGenerator streamed(77, shortConfig());

    const auto mix_a = materialized.randomVmMix(64);
    const auto mix_b = streamed.randomVmMix(64);
    ASSERT_EQ(mix_a.size(), mix_b.size());

    const auto trace = materialized.serverTrace(mix_a, model);
    auto stream = streamed.serverTraceStream(mix_b, model);
    ASSERT_EQ(stream.vms(), trace.vmUtil.size());

    const std::size_t slots = trace.vmUtil[0].size();
    const std::size_t stride = stream.vms();
    std::vector<double> util(slots * stride);
    std::vector<double> watts(slots * stride);
    for (std::size_t first = 0; first < slots;) {
        const std::size_t n = std::min<std::size_t>(97, slots - first);
        stream.generate(n, util.data() + first * stride,
                        watts.data() + first * stride, stride);
        first += n;
    }
    for (std::size_t v = 0; v < stride; ++v) {
        for (std::size_t i = 0; i < slots; ++i) {
            ASSERT_EQ(util[i * stride + v], trace.vmUtil[v].at(i))
                << "vm " << v << " slot " << i;
            ASSERT_EQ(watts[i * stride + v],
                      trace.vmTurboWatts[v].at(i))
                << "vm " << v << " slot " << i;
        }
    }

    // Both generators must leave the parent stream in the same
    // state: the next draws agree bit for bit.
    const auto next_a = materialized.utilSeries(serviceA());
    const auto next_b = streamed.utilSeries(serviceA());
    ASSERT_EQ(next_a.size(), next_b.size());
    for (std::size_t i = 0; i < next_a.size(); ++i)
        ASSERT_EQ(next_a.at(i), next_b.at(i));
}

TEST(TraceGenerator, StreamResetReplaysIdentically)
{
    const power::PowerModel model;
    TraceGenerator gen(33, shortConfig());
    const auto mix = gen.randomVmMix(64);
    auto stream = gen.serverTraceStream(mix, model);

    const std::size_t stride = stream.vms();
    const std::size_t slots = static_cast<std::size_t>(
        shortConfig().end / sim::kSlot);
    std::vector<double> util_once(slots * stride);
    std::vector<double> watts_once(slots * stride);
    stream.generate(slots, util_once.data(), watts_once.data(),
                    stride);

    stream.reset();
    std::vector<double> util_again(slots * stride);
    std::vector<double> watts_again(slots * stride);
    for (std::size_t first = 0; first < slots;) {
        const std::size_t n = std::min<std::size_t>(7, slots - first);
        stream.generate(n, util_again.data() + first * stride,
                        watts_again.data() + first * stride, stride);
        first += n;
    }
    ASSERT_EQ(util_once, util_again);
    ASSERT_EQ(watts_once, watts_again);
}

TEST(TraceGenerator, QuantizedStreamResumesBitIdentically)
{
    // The compact-column fill must be as resumable as the double
    // one: however the windows are chunked (awkward prime sizes
    // again), the quantized samples and float watts hints agree bit
    // for bit with a single-shot fill — the VmUtilCursor resume
    // guarantee carried through quantization.
    const power::PowerModel model;
    TraceGenerator whole(55, shortConfig());
    TraceGenerator chunked(55, shortConfig());

    const auto mix_a = whole.randomVmMix(64);
    const auto mix_b = chunked.randomVmMix(64);
    auto stream_a = whole.serverTraceStream(mix_a, model);
    auto stream_b = chunked.serverTraceStream(mix_b, model);

    const std::size_t stride = stream_a.vms();
    const std::size_t slots = static_cast<std::size_t>(
        shortConfig().end / sim::kSlot);
    std::vector<std::uint16_t> util_once(slots * stride);
    std::vector<float> watts_once(slots * stride);
    stream_a.generateQuantized(slots, util_once.data(),
                               watts_once.data(), stride);

    std::vector<std::uint16_t> util_chunked(slots * stride);
    std::vector<float> watts_chunked(slots * stride);
    for (std::size_t first = 0; first < slots;) {
        const std::size_t n =
            std::min<std::size_t>(101, slots - first);
        stream_b.generateQuantized(
            n, util_chunked.data() + first * stride,
            watts_chunked.data() + first * stride, stride);
        first += n;
    }
    ASSERT_EQ(util_once, util_chunked);
    ASSERT_EQ(watts_once, watts_chunked);
}

TEST(TraceGenerator, QuantizedStreamMatchesDoubleStream)
{
    // The quantized fill consumes the RNG exactly like the double
    // fill, its stored sample is quantizeUtil(double sample), and
    // its watts hint is the power model evaluated at the
    // *dequantized* utilization — the invariant that lets the
    // replay's batch server update reuse the hint verbatim.
    const power::PowerModel model;
    TraceGenerator doubles(91, shortConfig());
    TraceGenerator quantized(91, shortConfig());

    const auto mix_a = doubles.randomVmMix(64);
    const auto mix_b = quantized.randomVmMix(64);
    auto stream_a = doubles.serverTraceStream(mix_a, model);
    auto stream_b = quantized.serverTraceStream(mix_b, model);

    const std::size_t stride = stream_a.vms();
    const std::size_t slots = 3 * sim::kSlotsPerDay + 17;
    std::vector<double> util_d(slots * stride);
    std::vector<double> watts_d(slots * stride);
    stream_a.generate(slots, util_d.data(), watts_d.data(), stride);

    std::vector<std::uint16_t> util_q(slots * stride);
    std::vector<float> watts_q(slots * stride);
    stream_b.generateQuantized(slots, util_q.data(), watts_q.data(),
                               stride);

    for (std::size_t v = 0; v < stride; ++v) {
        const int cores = mix_a[v].cores;
        for (std::size_t i = 0; i < slots; ++i) {
            const std::size_t at = i * stride + v;
            ASSERT_EQ(util_q[at],
                      sim::quantizeUtil(util_d[at]))
                << "vm " << v << " slot " << i;
            const double uq = sim::dequantUtil(util_q[at]);
            const float want = static_cast<float>(
                (cores *
                 model.corePower(uq, power::kTurboMHz)).count());
            ASSERT_EQ(watts_q[at], want)
                << "vm " << v << " slot " << i;
        }
    }
}

TEST(TraceGenerator, UtilFillMatchesUtilAt)
{
    // The tabled shape fill behind the window refills must agree bit
    // for bit with the scalar utilAt for every shape kind: across
    // Friday->Saturday and Sunday->Monday, through negative shifted
    // ticks (phase shifts before tick 0, one of them over a day),
    // and off the minute grid (a +7 s start, a 7 s or 90 s step).
    constexpr int kKinds = static_cast<int>(ShapeKind::LowIdle) + 1;
    for (int k = 0; k < kKinds; ++k) {
        const auto kind = static_cast<ShapeKind>(k);
        for (int m = -1439; m <= 1439; ++m)
            ASSERT_EQ(shapeAtMinute(kind, m),
                      shapeValue(kind, m * sim::kMinute))
                << shapeName(kind) << " minute " << m;
    }

    std::vector<Archetype> archetypes;
    for (int k = 0; k < kKinds; ++k) {
        Archetype a;
        a.kind = static_cast<ShapeKind>(k);
        archetypes.push_back(a);
    }
    archetypes.push_back(serviceA());
    archetypes.push_back(serviceC());
    archetypes.push_back(mlTraining());

    const sim::Tick friday = 4 * sim::kDay;
    struct Span {
        sim::Tick start;
        sim::Tick length;
    };
    const Span spans[] = {
        {0, 2 * sim::kDay},
        {friday + 3 * sim::kMinute, 4 * sim::kDay},
        {friday + 7 * sim::kSecond, 4 * sim::kDay},
    };
    const sim::Tick shifts[] = {0, -180 * sim::kMinute,
                                -(sim::kDay + 180 * sim::kMinute),
                                7 * sim::kMinute};
    const sim::Tick intervals[] = {7 * sim::kSecond, sim::kMinute,
                                   90 * sim::kSecond, sim::kSlot};
    std::vector<double> filled;
    for (Archetype arch : archetypes) {
        for (const sim::Tick shift : shifts) {
            arch.phaseShift = shift;
            for (const Span &span : spans) {
                for (const sim::Tick interval : intervals) {
                    const auto n =
                        static_cast<std::size_t>(span.length / interval);
                    filled.assign(n, -1.0);
                    arch.utilFill(span.start, interval, n,
                                  filled.data());
                    for (std::size_t i = 0; i < n; ++i) {
                        const sim::Tick t = span.start +
                            static_cast<sim::Tick>(i) * interval;
                        ASSERT_EQ(filled[i], arch.utilAt(t))
                            << shapeName(arch.kind) << " shift "
                            << shift << " start " << span.start
                            << " interval " << interval << " i "
                            << i;
                    }
                }
            }
        }
    }

    // The generator's random mixes, on the replay's 5-minute grid.
    TraceGenerator gen(12, shortConfig());
    const std::size_t n = 9 * sim::kSlotsPerDay; // crosses a weekend
    const sim::Tick start = friday + 3 * sim::kMinute;
    filled.assign(n, -1.0);
    for (const auto &vm : gen.randomVmMix(64)) {
        vm.archetype.utilFill(start, sim::kSlot, n, filled.data());
        for (std::size_t i = 0; i < n; ++i) {
            const sim::Tick t =
                start + static_cast<sim::Tick>(i) * sim::kSlot;
            ASSERT_EQ(filled[i], vm.archetype.utilAt(t))
                << shapeName(vm.archetype.kind) << " i " << i;
        }
    }
}
