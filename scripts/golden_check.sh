#!/bin/sh
# Stdout golden gate: run each bench whose stdout is pure simulated
# results and fail unless it matches its checked-in golden under
# tests/golden/ byte for byte.  A missing golden, a crashing bench or
# any differing byte fails the gate; nothing is tolerance-compared.
# The goldens were captured from the default build (RelWithDebInfo +
# LTO, scripts/ci_check.sh's build/), see tests/golden/README.md.
#
# Usage: scripts/golden_check.sh [builddir]   (default: build/)
set -e
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
GOLDEN_DIR="$ROOT/tests/golden"

for bench in bench_table1_policies bench_table_faults \
    bench_fig12_13_14_cluster; do
    GOLDEN="$GOLDEN_DIR/$bench.txt"
    OUT="$BUILD/$bench.golden_check.txt"
    if [ ! -f "$GOLDEN" ]; then
        echo "FAIL: golden $GOLDEN missing" >&2
        exit 1
    fi
    if ! "$BUILD/bench/$bench" >"$OUT"; then
        echo "FAIL: $bench exited non-zero" >&2
        exit 1
    fi
    if ! cmp -s "$GOLDEN" "$OUT"; then
        echo "FAIL: $bench stdout differs from $GOLDEN" >&2
        diff "$GOLDEN" "$OUT" >&2 || true
        exit 1
    fi
    echo "$bench stdout matches $GOLDEN"
done
