/**
 * @file
 * socbench: the wall-clock benchmark of both simulators.
 *
 *   socbench --workload NAME --seed N --seconds S [--trace 0|1]
 *            [--t0-ns NS] [--spans PATH] [--git-sha SHA]
 *            [--setup-only | --print-digest]
 *
 * Untraced (--trace 0): repeats the workload's one call into
 * cluster::runTraceSim / runServiceSim for S seconds, checks every
 * run's output digest against the pinned digest of (workload, seed)
 * or, for an unpinned seed, against a 1-thread run of the same
 * seed, and prints the end-to-end metrics.
 *
 * Traced (--trace 1): alternates untraced and span-wrapped runs for
 * S seconds, runs the per-layer probes (probes.hh), a 1-thread run
 * for parallel efficiency, and prints the per-layer metrics; the
 * spans are written to --spans PATH when the run ends.
 *
 * --t0-ns is the CLOCK_MONOTONIC time at which the caller started
 * this process; setup_s runs from it to the first timed call.
 * --setup-only stops there and prints {"setup_s": ...};
 * --print-digest runs once and prints "WORKLOAD SEED DIGEST".
 *
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics.  Unknown workloads, unknown flags
 * and malformed numbers (S outside 1..60 too) are usage errors
 * (exit 2).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "digest.hh"
#include "probes.hh"
#include "sim/stats.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace socbench;
using soc::sim::median;
using Clock = std::chrono::steady_clock;

namespace
{

/** Worker threads are min(nproc, this): the 4 cores the baselines
 *  in README.md were measured on. */
constexpr int kMaxThreads = 4;
/** Runs per untraced measurement, at least. */
constexpr int kMinRuns = 3;
/** Largest --seconds: the measured loop, the probes and the 1-thread
 *  reference run of the slowest workload then still end well inside
 *  run.py's deadline. */
constexpr long long kMaxSeconds = 60;

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::int64_t t0Ns = -1;
    std::string spansPath;
    std::string gitSha = "unknown";
    bool setupOnly = false;
    bool printDigest = false;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: socbench --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--t0-ns NS] "
                 "[--spans PATH] [--git-sha SHA] "
                 "[--setup-only | --print-digest]\n"
                 "workloads:");
    for (const auto &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

/** Strict decimal parse of the whole token into [min, max]. */
bool
parseInt(const char *text, long long min, long long max,
         long long &out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(text, &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0' || value < min ||
        value > max)
        return false;
    out = value;
    return true;
}

bool
isHexSha(const char *text)
{
    const std::size_t n = std::strlen(text);
    if (n == 0 || n > 64)
        return false;
    for (std::size_t i = 0; i < n; ++i)
        if (!((text[i] >= '0' && text[i] <= '9') ||
              (text[i] >= 'a' && text[i] <= 'f')))
            return false;
    return true;
}

bool
parseArgs(int argc, char **argv, Args &out)
{
    // Fail closed: fill a local and assign only once all of argv
    // parsed, so a bad flag never runs a half-configured benchmark.
    Args args;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        long long n = 0;
        if (flag == "--setup-only") {
            args.setupOnly = true;
            continue;
        }
        if (flag == "--print-digest") {
            args.printDigest = true;
            continue;
        }
        if (value == nullptr)
            return false;
        ++i;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseInt(value, 0, INT64_MAX, n))
                return false;
            args.seed = static_cast<std::uint64_t>(n);
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseInt(value, 1, kMaxSeconds, n))
                return false;
            args.seconds = static_cast<int>(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (!parseInt(value, 0, 1, n))
                return false;
            args.trace = n == 1;
        } else if (flag == "--t0-ns") {
            if (!parseInt(value, 0, INT64_MAX, n))
                return false;
            args.t0Ns = n;
        } else if (flag == "--spans") {
            if (*value == '\0')
                return false;
            args.spansPath = value;
        } else if (flag == "--git-sha") {
            if (std::strcmp(value, "unknown") != 0 && !isHexSha(value))
                return false;
            args.gitSha = value;
        } else {
            return false;
        }
    }
    if (!have_workload || !have_seed ||
        (!have_seconds && !args.setupOnly && !args.printDigest) ||
        (args.setupOnly && args.printDigest))
        return false;
    out = std::move(args);
    return true;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Peak resident set of this process so far, KiB. */
double
peakRssKb()
{
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss);
}

/** One call into the workload's entry point. */
struct Run {
    bool ok = false;
    double wallS = 0.0;
    std::uint64_t digest = 0;
    soc::cluster::TraceSimResult trace;
    soc::cluster::ServiceSimResult service;
};

Run
runOnce(const Workload &w, Spans &spans)
{
    Run run;
    try {
        if (w.isService) {
            Spans::Scope scope(spans, "cluster.runServiceSim");
            const auto start = Clock::now();
            run.service = soc::cluster::runServiceSim(w.service);
            run.wallS = secondsSince(start);
            run.digest = digest(run.service);
        } else {
            Spans::Scope scope(spans, "cluster.runTraceSim");
            const auto start = Clock::now();
            run.trace = soc::cluster::runTraceSim(w.trace);
            run.wallS = secondsSince(start);
            run.digest = digest(run.trace);
        }
        run.ok = true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "socbench: run threw: %s\n", e.what());
    }
    return run;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
envJson(const Args &args, const Workload &w, bool pinned)
{
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"workload\": \"%s\", \"seed\": %" PRIu64
        ", \"nproc\": %u, \"threads\": %d, \"build_type\": \"%s\", "
        "\"lto\": %s, \"compiler\": \"%s\", \"git_sha\": \"%s\", "
        "\"digest_reference\": \"%s\", \"trace\": %d}",
        w.name.c_str(), args.seed, std::thread::hardware_concurrency(),
        w.threads, jsonEscape(SOCBENCH_BUILD_TYPE).c_str(),
        SOCBENCH_LTO ? "true" : "false",
        jsonEscape(compilerName()).c_str(), args.gitSha.c_str(),
        pinned ? "pinned" : "1-thread run", args.trace ? 1 : 0);
    return buf;
}

/** Metrics of the result line, in print order. */
class Metrics
{
  public:
    void add(const char *name, double value, const char *unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i == 0 ? "" : ", ", entries_[i].name,
                          entries_[i].value, entries_[i].unit);
            out += buf;
        }
        return out + "}";
    }

  private:
    struct Entry {
        const char *name;
        double value;
        const char *unit;
    };
    std::vector<Entry> entries_;
};

void
printResult(bool correct, std::uint64_t attempted,
            std::uint64_t failed, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                metrics.json().c_str());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics from one run's simulated outputs and timers. */
void
addResultMetrics(Metrics &m, const Workload &w, const Run &run,
                 double genS, double simS, double hierS)
{
    const auto &t = run.trace;
    const auto &svc = run.service;
    m.add("workload.gen_s", genS, "s");
    m.add("cluster.sim_s", simS, "s");
    m.add("cluster.hier_s", hierS, "s");
    m.add("cluster.requests", static_cast<double>(t.requests), "count");
    m.add("core.soa.grant_ratio",
          ratio(static_cast<double>(t.successSteps),
                static_cast<double>(t.wantSteps)),
          "ratio");
    m.add("core.soa.flap_denied", static_cast<double>(t.flapDenied),
          "count");
    m.add("core.hierarchy.recomputes",
          static_cast<double>(t.hierarchyRecomputes), "count");
    m.add("core.hierarchy.rack_aggregations",
          static_cast<double>(t.hierarchyStats.rackAggregations),
          "count");
    m.add("core.hierarchy.row_aggregations",
          static_cast<double>(t.hierarchyStats.rowAggregations),
          "count");
    m.add("core.hierarchy.splits",
          static_cast<double>(t.hierarchyStats.splits), "count");
    const auto &ing = w.isService ? svc.ingress : t.ingress;
    m.add("core.ingress.offered", static_cast<double>(ing.offered),
          "count");
    m.add("core.ingress.accepted", static_cast<double>(ing.accepted),
          "count");
    m.add("core.ingress.parse_rejects",
          static_cast<double>(ing.parseRejects), "count");
    m.add("core.ingress.duplicates", static_cast<double>(ing.duplicates),
          "count");
    m.add("core.ingress.overflow_evictions",
          static_cast<double>(ing.overflowEvictions), "count");
    m.add("core.ingress.sink_drops", static_cast<double>(ing.sinkDrops),
          "count");
    m.add("core.ingress.accept_ratio",
          ratio(static_cast<double>(ing.accepted),
                static_cast<double>(ing.offered)),
          "ratio");
    const auto &faults = w.isService ? svc.faults : t.faults;
    m.add("core.faults.goa_outages",
          static_cast<double>(faults.goaOutages), "count");
    m.add("core.faults.telemetry_retries",
          static_cast<double>(faults.telemetryRetries), "count");
    m.add("core.faults.budget_delays",
          static_cast<double>(faults.budgetDelays), "count");
    m.add("core.faults.recoveries", static_cast<double>(t.recoveries),
          "count");
    m.add("core.wi.overclock_starts",
          static_cast<double>(svc.overclockStarts), "count");
    m.add("core.wi.scale_outs", static_cast<double>(svc.scaleOuts),
          "count");
    m.add("core.wi.denials", static_cast<double>(svc.denials), "count");
    m.add("power.cap_events",
          static_cast<double>(w.isService ? svc.capEvents : t.capEvents),
          "count");
    m.add("power.warnings", static_cast<double>(t.warnings), "count");
    m.add("power.capped_ticks", static_cast<double>(t.cappedTicks),
          "count");
}

void
addProbeMetrics(Metrics &m, const ProbeResults &p)
{
    m.add("workload.gen_ns_per_sample", p.genNsPerSample, "ns");
    m.add("cluster.apply_ns_per_slot", p.applyNsPerSlot, "ns");
    m.add("sim.event_ns", p.eventNs, "ns");
    m.add("core.soa.tick_ns", p.soaTickNs, "ns");
    m.add("core.goa.pull_us", p.goaPullUs, "us");
    m.add("core.goa.split_us", p.goaSplitUs, "us");
    m.add("core.hierarchy.recompute_us", p.hierarchyRecomputeUs, "us");
    m.add("core.ingress.ns_per_hint", p.ingressNsPerHint, "ns");
    m.add("power.rack_manager.tick_ns", p.rackManagerTickNs, "ns");
    m.add("mem.soa_kb_per_server", p.soaKbPerServer, "KiB");
}

/** Reference digest for an unpinned seed: a 1-thread run. */
std::optional<std::uint64_t>
referenceRun(const Workload &w, Spans &spans, double *wallS)
{
    Workload one = w;
    one.trace.threads = 1;
    Spans::Scope scope(spans, "run.one_thread");
    const Run run = runOnce(one, spans);
    if (wallS != nullptr)
        *wallS = run.wallS;
    if (!run.ok)
        return std::nullopt;
    return run.digest;
}

int
measure(const Args &args, const Workload &w,
        std::optional<std::uint64_t> expected, double setupS)
{
    Spans spans(false);
    std::vector<double> walls;
    std::vector<std::uint64_t> digests;
    std::uint64_t attempted = 0;
    std::uint64_t threw = 0;
    const auto start = Clock::now();
    while (attempted < kMinRuns || secondsSince(start) < args.seconds) {
        const Run run = runOnce(w, spans);
        ++attempted;
        if (!run.ok) {
            ++threw;
            continue;
        }
        walls.push_back(run.wallS);
        digests.push_back(run.digest);
    }
    const double peak_kb = peakRssKb();

    if (!expected)
        expected = referenceRun(w, spans, nullptr);
    std::uint64_t failed = threw;
    for (const auto d : digests)
        if (!expected || d != *expected)
            ++failed;
    if (expected && failed > threw)
        std::fprintf(stderr, "socbench: digest mismatch (expected %s)\n",
                     hex(*expected).c_str());

    const double wall = median(walls);
    Metrics m;
    m.add("wall_s", wall, "s");
    m.add("server_hours_per_s", ratio(w.serverHours, wall), "1/s");
    m.add("setup_s", setupS, "s");
    m.add("peak_rss_mb", peak_kb / 1024.0, "MiB");
    m.add("rss_kb_per_server", peak_kb / w.servers, "KiB");
    printResult(failed == 0 && !walls.empty(), attempted, failed, m);
    return 0;
}

int
traced(const Args &args, const Workload &w,
       std::optional<std::uint64_t> expected, const std::string &env)
{
    Spans spans(true, std::size_t{1} << 18);
    const int root = spans.open("socbench");

    // Alternate untraced and span-wrapped runs, so the overhead of
    // tracing is measured against runs under the same conditions.
    Spans off(false);
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    std::vector<double> gen_s;
    std::vector<double> sim_s;
    std::vector<double> hier_s;
    std::vector<double> busy;
    std::vector<std::uint64_t> digests;
    Run last;
    std::uint64_t attempted = 0;
    std::uint64_t threw = 0;
    const auto start = Clock::now();
    while (traced_walls.size() < 2 || untraced_walls.size() < 2 ||
           secondsSince(start) < args.seconds) {
        const bool trace_this = attempted % 2 == 1;
        Run run;
        if (trace_this) {
            Spans::Scope scope(spans, "run.traced");
            run = runOnce(w, spans);
        } else {
            run = runOnce(w, off);
        }
        ++attempted;
        if (!run.ok) {
            ++threw;
            if (threw > 2)
                break;
            continue;
        }
        digests.push_back(run.digest);
        if (!trace_this) {
            untraced_walls.push_back(run.wallS);
            continue;
        }
        traced_walls.push_back(run.wallS);
        if (w.isService) {
            sim_s.push_back(run.wallS);
        } else {
            gen_s.push_back(run.trace.genSeconds);
            sim_s.push_back(run.trace.simSeconds);
            hier_s.push_back(run.trace.hierSeconds);
        }
        const double work = (gen_s.empty() ? 0.0 : gen_s.back()) +
            sim_s.back() + (hier_s.empty() ? 0.0 : hier_s.back());
        busy.push_back(ratio(work, w.threads * run.wallS));
        last = std::move(run);
    }

    ProbeResults probes;
    {
        Spans::Scope scope(spans, "probes");
        probes = runProbes(w, spans);
    }

    // Parallel efficiency: wall at 1 thread over threads x wall at
    // the workload's thread count.  The service sim is serial.
    double parallel_eff = 1.0;
    const double untraced_wall = median(untraced_walls);
    if (!w.isService || !expected) {
        double one_wall = 0.0;
        const auto one = referenceRun(w, spans, &one_wall);
        if (!expected)
            expected = one;
        if (!w.isService)
            parallel_eff = ratio(one_wall, w.threads * untraced_wall);
    }
    spans.close(root);

    std::uint64_t failed = threw;
    for (const auto d : digests)
        if (!expected || d != *expected)
            ++failed;

    Metrics m;
    addResultMetrics(m, w, last, median(gen_s), median(sim_s),
                     median(hier_s));
    m.add("sim.pool_busy_share", median(busy), "ratio");
    m.add("sim.parallel_eff", parallel_eff, "ratio");
    addProbeMetrics(m, probes);
    m.add("trace.overhead_s", median(traced_walls) - untraced_wall, "s");

    if (!args.spansPath.empty() && !spans.write(args.spansPath, env)) {
        std::fprintf(stderr, "socbench: cannot write %s\n",
                     args.spansPath.c_str());
        return 1;
    }
    printResult(failed == 0 && !traced_walls.empty(), attempted, failed,
                m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto process_main = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, args))
        return usage();

    const int threads = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1,
        kMaxThreads);
    auto made = makeWorkload(args.workload, args.seed, threads);
    if (!made)
        return usage();
    Workload w = std::move(*made);
    try {
        if (w.isService)
            w.service.validate();
        else
            w.trace.validate();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "socbench: invalid configuration: %s\n",
                     e.what());
        return 2;
    }

    if (args.printDigest) {
        Spans off(false);
        const Run run = runOnce(w, off);
        if (!run.ok)
            return 1;
        std::printf("%s %" PRIu64 " %s\n", w.name.c_str(), args.seed,
                    hex(run.digest).c_str());
        return 0;
    }

    const auto expected = pinnedDigest(w.name, args.seed);
    const std::string env = envJson(args, w, expected.has_value());

    // Set-up ends here, just before the first timed call.
    const double setup_s = args.t0Ns >= 0
        ? static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now().time_since_epoch())
                  .count() -
              args.t0Ns) *
            1e-9
        : secondsSince(process_main);
    if (args.setupOnly) {
        std::printf("{\"setup_s\": %.9f}\n", setup_s);
        return 0;
    }

    std::printf("{\"env\": %s}\n", env.c_str());
    std::fflush(stdout);
    return args.trace ? traced(args, w, expected, env)
                      : measure(args, w, expected, setup_s);
}
