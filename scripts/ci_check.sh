#!/bin/sh
# Full CI gate: tier-1 build + tests, the bench regression gates,
# the stdout goldens, the static-analysis chain, ThreadSanitizer,
# and the suite under UndefinedBehaviorSanitizer.
# Each stage uses its own build directory so sanitizer flags never
# leak between configurations.  Usage: scripts/ci_check.sh
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

echo "==== ci_check: tier-1 build + ctest ===="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$(nproc)"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$(nproc)"

echo "==== ci_check: bench gates ===="
"$ROOT/scripts/bench_check.sh" "$ROOT/build"

echo "==== ci_check: paper-scale smoke (512 racks) ===="
# CI-sized slice of the 7,104-rack streaming replay: exercises the
# HierarchyZone lockstep orchestrator end to end without the full
# fleet's minutes of wall time.  Success = the run completes and
# emits its gated fields (values are gated at full scale by
# bench_check.sh).
"$ROOT/build/bench/bench_trace_sim" \
    "$ROOT/build/BENCH_paper_smoke.json" --paper-scale --racks 512
for field in paper_racks_per_s paper_peak_rss_mb; do
    grep -q "\"$field\"" "$ROOT/build/BENCH_paper_smoke.json" || {
        echo "FAIL: $field missing from paper-scale smoke output" >&2
        exit 1
    }
done

echo "==== ci_check: six-week horizon smoke (16 racks) ===="
# Tiny fleet on the paper's full 1w + 5w horizon: crosses weekly
# recomputes, weekend amplitude shifts and many stream-window
# refills — the long-horizon paths the 6h + 6h smoke never reaches.
# Its peak RSS is gated: per-server agent state must not grow with
# the horizon.  Measured on a 4-core VM (RelWithDebInfo + LTO):
# 43-45 MiB with horizon-independent sOA telemetry, 120-123 MiB
# when every sOA kept unbounded per-slot histories.
SIXWEEK_PEAK_RSS_MB_MAX=64
"$ROOT/build/bench/bench_trace_sim" \
    "$ROOT/build/BENCH_sixweek_smoke.json" --paper-scale \
    --racks 16 --six-weeks
grep -q '"paper_racks_per_s"' "$ROOT/build/BENCH_sixweek_smoke.json" || {
    echo "FAIL: paper_racks_per_s missing from six-week smoke output" >&2
    exit 1
}
# Parse fail-closed: a missing or non-numeric field fails the gate.
SIXWEEK_PEAK_RSS_MB=$(sed -n 's/.*"paper_peak_rss_mb": \([0-9.]*\).*/\1/p' \
    "$ROOT/build/BENCH_sixweek_smoke.json")
if [ -z "$SIXWEEK_PEAK_RSS_MB" ]; then
    echo "FAIL: paper_peak_rss_mb missing from six-week smoke output" >&2
    exit 1
fi
echo "six-week smoke peak RSS: $SIXWEEK_PEAK_RSS_MB MiB" \
     "(ceiling: $SIXWEEK_PEAK_RSS_MB_MAX)"
awk "BEGIN { exit !($SIXWEEK_PEAK_RSS_MB <= $SIXWEEK_PEAK_RSS_MB_MAX) }" || {
    echo "FAIL: six-week smoke peak RSS above" \
         "$SIXWEEK_PEAK_RSS_MB_MAX MiB — agent state growing with" \
         "the horizon?" >&2
    exit 1
}

echo "==== ci_check: Table I determinism (1 vs 4 threads) ===="
# The Table I comparison runs the PerRack replay with the direct hint
# path end to end; its stdout must not depend on the thread count.
TABLE1_T1="$ROOT/build/table1_threads1.txt"
TABLE1_T4="$ROOT/build/table1_threads4.txt"
"$ROOT/build/bench/bench_table1_policies" 1 >"$TABLE1_T1"
"$ROOT/build/bench/bench_table1_policies" 4 >"$TABLE1_T4"
if ! cmp -s "$TABLE1_T1" "$TABLE1_T4"; then
    echo "FAIL: bench_table1_policies output differs between 1 and" \
         "4 threads" >&2
    diff "$TABLE1_T1" "$TABLE1_T4" >&2 || true
    exit 1
fi
echo "Table I output byte-identical at 1 and 4 threads"

echo "==== ci_check: stdout goldens ===="
# Table I, the fault table and the §V-A cluster figures must print
# exactly the checked-in bytes (tests/golden/README.md).
"$ROOT/scripts/golden_check.sh" "$ROOT/build"

echo "==== ci_check: static analysis ===="
STATIC_LOG="$(mktemp)"
if ! "$ROOT/scripts/static_check.sh" "$ROOT/build-static" \
    >"$STATIC_LOG" 2>&1; then
    cat "$STATIC_LOG"
    rm -f "$STATIC_LOG"
    exit 1
fi
cat "$STATIC_LOG"
# One-line findings delta for the CI log scanner: new findings vs
# the checked-in baseline, straight from the soclint summary.
grep '^soclint summary:' "$STATIC_LOG" |
    sed 's/^soclint summary:/soclint findings delta vs baseline:/'
rm -f "$STATIC_LOG"

echo "==== ci_check: ThreadSanitizer ===="
"$ROOT/scripts/tsan_check.sh" "$ROOT/build-tsan"

echo "==== ci_check: UndefinedBehaviorSanitizer ===="
cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DSOC_SANITIZE=undefined
cmake --build "$ROOT/build-ubsan" -j "$(nproc)"
ctest --test-dir "$ROOT/build-ubsan" --output-on-failure -j "$(nproc)"

echo "==== ci_check: all stages passed ===="
