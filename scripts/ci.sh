#!/usr/bin/env bash
# Full local CI gate: static checks, the test suite once plain and once
# under -race, the reproduction-drift gate, fuzz smokes, the in-process
# performance A/B and the crash soaks. Every performance bound here is a
# documented contract with no environment override: scripts/abgate's 3%
# tracing overhead and 20% planner regret. Benchmark timings against
# BENCH_baseline.json are a manual check (scripts/bench.sh, then
# scripts/bench-compare.sh, default 5%) for a quiet machine.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> fused-multiply-add census (settlement arithmetic cross-compiled for arm64)"
# Go may fuse x*y + z into one multiply-add on arm64, never on amd64, so a
# fused payoff expression lets an arm64 standby seal another state root. An
# explicit float64(...) conversion blocks the fusion. This cross-compiles
# the chain node and fails on any fused instruction in the contract's
# package (4 s on a warm build cache, 28 s cold). The auditor's settlement
# check is not censused: it is test support that no command links, and a
# fused oracle on arm64 would fail its own tests, a visible false alarm,
# where a fused contract forks a node silently.
FMA_DIR="$(mktemp -d)"
GOARCH=arm64 go build -o "$FMA_DIR/tradefl-chain" ./cmd/tradefl-chain
fused="$(go tool objdump "$FMA_DIR/tradefl-chain" | awk '
  /^TEXT / { sym = $2 }
  /FMADDD|FMSUBD|FNMADDD|FNMSUBD/ && sym ~ /^tradefl\/internal\/chain\./ { print sym }')"
rm -rf "$FMA_DIR"
[ -z "$fused" ] || { echo "fma census: fused multiply-adds in settlement code:"; echo "$fused" | sort | uniq -c; exit 1; }

echo "==> go test ./..."
# The plain suite runs first so a broken build or a failing test stops CI
# in seconds, before the slower steps. It is also the only run of the
# tests that skip under the race detector, because sync.Pool drops and
# allocates at random there: gbd's TestSteadyStateAllocs (a CGBD solve on
# a grown workspace stays under half its pre-arena allocations) and
# fl/tensor's TestReuseIsAllocationFree.
go test ./...
# A single-iteration pass over the tracked benchmarks proves the harness
# end to end without timing anything.
BENCH_TIME=1x BENCH_COUNT=1 scripts/bench.sh >/dev/null

echo "==> reproduction-drift gate (every committed result regenerates byte-identically)"
# Every file in results/ is a pure function of its seed: fig4..fig12 of the
# seeded game instances and the two solvers, fig2 and fig13..fig15 of the
# seeded FL runs as well. So any change to generation, payoff evaluation,
# solver arithmetic or training shows up as a changed byte. A diff here is
# either a bug or a deliberate change of the reproduction: review it,
# regenerate results/ and update EXPERIMENTS.md in the same commit. The
# whole loop takes about 40 s; the 180 s budget fails a loop that has grown
# past what a gate run can afford.
DRIFT_DIR="$(mktemp -d)"
go build -o "$DRIFT_DIR/tradefl-sim" ./cmd/tradefl-sim
DRIFT_START=$SECONDS
for fig in fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 \
  table1 table2 ext-personalization ext-campaign; do
  fig_start=$SECONDS
  "$DRIFT_DIR/tradefl-sim" -fig "$fig" -log-level error -out "$DRIFT_DIR" >/dev/null
  cmp "$DRIFT_DIR/$fig.csv" "results/$fig.csv" \
    || { echo "drift gate: $fig.csv no longer matches results/$fig.csv"; exit 1; }
  echo "drift gate: $fig ok ($((SECONDS - fig_start)) s)"
done
drift_secs=$((SECONDS - DRIFT_START))
[ "$drift_secs" -le 180 ] \
  || { echo "drift gate: $drift_secs s over the 180 s budget"; exit 1; }
rm -rf "$DRIFT_DIR"

echo "==> go test -race ./..."
# The suite runs the commands end to end in process: a traced gateway job
# followed over SSE and drained by SIGTERM (TestRunSolvesTracesAndDrains),
# a figure run with the invariant auditor armed (TestFigureRunUnderVerify)
# and the deployment on an in-memory chain node (TestOrgsSettleAgainstNode),
# beside the auditor's mutation self-tests.
go test -race ./...

echo "==> fuzz smokes (hand-written codecs vs their encoding/json oracles)"
# The spec decoder's differential fuzz: ParseJobSpec must answer arbitrary
# bytes exactly as its encoding/json-only oracle does.
go test -run '^$' -fuzz '^FuzzParseJobSpec$' -fuzztime 20s ./internal/serve/
# The chain's append encoders and one-pass RPC decoders against the same
# kind of oracle: every signed, hashed, logged and replied byte, and every
# decoded request and reply, must be encoding/json's. A short minimize
# budget: with a dozen arguments the default spends the run minimizing.
go test -run '^$' -fuzz '^FuzzChainEncodeMatchesJSON$' -fuzztime 10s -fuzzminimizetime 2s ./internal/chain/
go test -run '^$' -fuzz '^FuzzChainDecodeMatchesJSON$' -fuzztime 10s -fuzzminimizetime 2s ./internal/chain/
# Recovery of arbitrary bytes after a valid genesis record: never panic,
# never apply past the clean frame prefix, idempotent. Every input fsyncs,
# so a default minimization of each new input would stall the run.
go test -run '^$' -fuzz '^FuzzWALRecover$' -fuzztime 10s -fuzzminimizetime 1s ./internal/chain/
# Job events and the status document are append-built; their oracle is
# encoding/json over the struct forms in encode_test.go.
go test -run '^$' -fuzz '^FuzzJobDocuments$' -fuzztime 15s ./internal/serve/
# The status document lays its results out with jsonx.AppendIndent, which
# must write json.Indent's bytes for anything json.Compact writes.
go test -run '^$' -fuzz '^FuzzAppendIndentMatchesJSON$' -fuzztime 5s ./internal/jsonx/
# randx's lazily seeded source must stay stream-identical to math/rand:
# every seeded figure, golden hash and account key rests on it.
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 15s ./internal/randx/
# DBR's closed-form best response must meet the first-order condition and
# stay within rounding of the golden-section search's payoff (and 1e-6 of
# its d) at every level of any game it is handed, and a solve must keep the
# from-scratch reference's bits.
go test -run '^$' -fuzz '^FuzzClosedFormMatchesSearch$' -fuzztime 5s ./internal/dbr/
# NormalizeRho's skip rule must leave the ρ bits and the factor of the loop
# it replaced (the oracle in normalize_test.go), with no more row sums.
go test -run '^$' -fuzz '^FuzzNormalizeRhoMatchesReference$' -fuzztime 5s ./internal/game/
# NewInstance's one walk must accept, refuse and word its errors as the old
# Validate did, and derive the rows the old Reset derived, bit for bit.
go test -run '^$' -fuzz '^FuzzNewInstance$' -fuzztime 5s -fuzzminimizetime 1s ./internal/game/

echo "==> performance A/B (scripts/abgate)"
# Fleet batch solves, interleaved ABBA in one process and timed in process
# CPU: traced vs untraced within 3% with byte-identical outputs, plan=auto
# vs plan=dbr within 20% with each plan's outputs fixed.
go run ./scripts/abgate

echo "==> crash-restart soaks"
# The seeded crash-restart soaks, 25 times each (~0.2 s a run): kill -9
# the validator on a deterministic schedule mid-settlement, reopen it from
# the log each time, and require every recovery to reproduce the durable
# prefix exactly (height, state root, mempool), the wei-exact settlement
# check on the final incarnation, and a point-in-time recovery view. The
# batched ones settle the four Fig. 3 stages with one SubmitTxBatch each,
# so the cycles land on batched group commits. A recovery that loses an
# acknowledged record fails a run, so a regression turns the gate red
# instead of showing as an occasional flake. A failure reproduces from its
# test name: go test -race -run '^TestName$' ./internal/chaos/. The
# guard fails the gate if a rename empties the pattern. That group commit
# batches at all is counted, not timed, by chain's
# TestWALGroupCommitOneFsyncPerBacklog in the suites above.
CRASH_SOAKS='^(TestCrashSoakBatched|TestCrashRestartSoak|TestCrashSoakBatchedRPCFaults)$'
[ "$(go test -list "$CRASH_SOAKS" ./internal/chaos/ | grep -c '^Test')" -eq 3 ] \
  || { echo "crash soaks: pattern does not select its 3 tests" >&2; exit 1; }
go test -count=25 -run "$CRASH_SOAKS" ./internal/chaos/

echo "==> CI OK"
