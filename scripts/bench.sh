#!/usr/bin/env bash
# Runs the tracked solver/kernel benchmarks and writes:
#   benchmarks/latest.txt  raw `go test -bench` output
#   BENCH_latest.json      parsed {benchmark: ns/op} profile
#
# Usage:
#   scripts/bench.sh             run benches, refresh BENCH_latest.json
#   scripts/bench.sh --promote   additionally promote the fresh result to
#                                BENCH_baseline.json (review it first!)
#
# Environment:
#   BENCH_TIME   -benchtime per benchmark (default 300ms)
#   BENCH_COUNT  -count repeats; benchcmp keeps the fastest (default 3)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_TIME="${BENCH_TIME:-300ms}"
BENCH_COUNT="${BENCH_COUNT:-3}"
BENCH_REGEX='^(BenchmarkAblation_MasterSolvers|BenchmarkBestResponse|BenchmarkTensorMatMul|BenchmarkPotential|BenchmarkFleetSolve|BenchmarkPlanCrossover|BenchmarkScaling_DBR|BenchmarkDefaultConfig|BenchmarkNormalizeRho|BenchmarkGBDSolve|BenchmarkSettlement)$'
CHAIN_BENCH_REGEX='^(BenchmarkChainSettle|BenchmarkChainSubmitTx|BenchmarkVerifyChain)$'

mkdir -p benchmarks
echo "running tracked benchmarks (benchtime=$BENCH_TIME count=$BENCH_COUNT)..." >&2
go test -run '^$' -bench "$BENCH_REGEX" -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" . | tee benchmarks/latest.txt
go test -run '^$' -bench "$CHAIN_BENCH_REGEX" -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/chain/ | tee -a benchmarks/latest.txt
# The chain's append encoders on the settle_rpc shapes; the encoding/json
# reference rows stay out of the profile.
go test -run '^$' -bench '^BenchmarkChainEncode$/^(tx|block32|ledger32)$/^append$' -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/chain/ | tee -a benchmarks/latest.txt
# The two halves of a generated job that are not its solve: seeding the
# instance's random stream, and the job's result event + status document.
# The math/rand and encoding/json reference rows stay out of the profile.
go test -run '^$' -bench '^BenchmarkSeedDraw80$/^randx$' -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/randx/ | tee -a benchmarks/latest.txt
go test -run '^$' -bench '^BenchmarkJobDocuments$/^(status|result-event)$/^append$' -benchtime "$BENCH_TIME" -count "$BENCH_COUNT" ./internal/serve/ | tee -a benchmarks/latest.txt
go run ./scripts/benchcmp parse benchmarks/latest.txt > BENCH_latest.json
echo "wrote benchmarks/latest.txt and BENCH_latest.json" >&2

if [[ "${1:-}" == "--promote" ]]; then
    cp BENCH_latest.json BENCH_baseline.json
    echo "promoted BENCH_latest.json -> BENCH_baseline.json" >&2
fi
