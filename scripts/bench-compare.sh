#!/usr/bin/env bash
# Compares BENCH_latest.json against the checked-in BENCH_baseline.json and
# fails (exit 1, loudly) if any shared benchmark slowed down by more than
# BENCH_MAX_REGRESSION_PCT percent (default 5).
#
# Run scripts/bench.sh first to refresh BENCH_latest.json. If no baseline
# exists yet the comparison is skipped (promote one with
# `scripts/bench.sh --promote`).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_MAX_REGRESSION_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"

if [[ ! -f BENCH_baseline.json ]]; then
    echo "no BENCH_baseline.json — skipping comparison (run scripts/bench.sh --promote to create one)" >&2
    exit 0
fi
if [[ ! -f BENCH_latest.json ]]; then
    echo "no BENCH_latest.json — run scripts/bench.sh first" >&2
    exit 1
fi
if ! go run ./scripts/benchcmp compare -max-regression "$BENCH_MAX_REGRESSION_PCT" BENCH_baseline.json BENCH_latest.json; then
    echo >&2
    echo "XXX BENCHMARK REGRESSION over ${BENCH_MAX_REGRESSION_PCT}% vs BENCH_baseline.json XXX" >&2
    echo "XXX inspect benchmarks/latest.txt; if the slowdown is intended, re-baseline XXX" >&2
    echo "XXX with 'scripts/bench.sh --promote' and commit BENCH_baseline.json.       XXX" >&2
    exit 1
fi
