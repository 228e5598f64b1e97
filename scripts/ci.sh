#!/usr/bin/env bash
# Full local CI gate: static checks, the race-enabled test suite, and a
# benchmark-regression smoke run.
#
# The bench smoke runs right after the race suite with a short -benchtime,
# so on shared hardware timings can read 50-80% high from transient CPU
# contention alone. Its default threshold is therefore relaxed to catch
# only order-of-magnitude regressions while still proving the harness
# end to end; pin BENCH_MAX_REGRESSION_PCT for strict gating, or run
# scripts/bench.sh + scripts/bench-compare.sh (default 5%) on a quiet
# machine for the full-fidelity check.
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
# package or in the auditor's settlement check (4 s on a warm build
# cache, 28 s cold).
FMA_DIR="$(mktemp -d)"
GOARCH=arm64 go build -o "$FMA_DIR/tradefl-chain" ./cmd/tradefl-chain
fused="$(go tool objdump "$FMA_DIR/tradefl-chain" | awk '
  /^TEXT / { sym = $2 }
  /FMADDD|FMSUBD|FNMADDD|FNMSUBD/ && (sym ~ /^tradefl\/internal\/chain\./ || sym ~ /^tradefl\/internal\/verify\.\(\*Auditor\)\.CheckSettlement\(/) { print sym }')"
rm -rf "$FMA_DIR"
[ -z "$fused" ] || { echo "fma census: fused multiply-adds in settlement code:"; echo "$fused" | sort | uniq -c; exit 1; }

echo "==> engine-equivalence fast gate (evaluator and solvers vs from-scratch references under -race + 1-iteration bench smoke)"
# The exactness contract of the one evaluation path: DeltaEvaluator vs
# Config.Payoff (plus fuzz seed corpus), the DBR engine and Solve vs the
# from-scratch reference scan in dbr/reference_test.go, DBR and CGBD solves
# vs the goldens recorded while the recompute-everything twins still ran
# beside them. It runs first so a broken cache fails in seconds, then a
# single-iteration bench pass proves the tracked harness end to end without
# timing anything. The pattern selects by name, so a rename can silently
# empty it: the guard fails the gate if it matches nothing in a package.
ENGINE_TESTS='Delta|Engine|Incremental|Golden|ZeroAlloc|NoPrimalRevisit|Certificate|ErrBound'
for pkg in ./internal/game/ ./internal/dbr/ ./internal/gbd/; do
  # grep -c reads to EOF: grep -q would exit at the first match, and the
  # "ok" line go test writes after it would fail the pipe (SIGPIPE).
  go test -list "$ENGINE_TESTS" "$pkg" | grep -c '^Test' >/dev/null || { echo "engine-equivalence gate: pattern selects no test in $pkg" >&2; exit 1; }
done
go test -race -run "$ENGINE_TESTS" ./internal/game/ ./internal/dbr/ ./internal/gbd/
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

echo "==> solver-workspace fast gate (allocation pin, then gbd/fleet/serve under -race)"
# CGBD solves draw recycled solvers from a pool inside gbd; the fleet engine
# and the gateway sit on top of it. The allocation pin (an N=8 solve on a
# grown workspace stays under half of what it allocated before the arenas)
# cannot run under the race detector, which makes sync.Pool drop entries at
# random, so it runs first on its own. Then the three packages under -race:
# workspace reuse across shapes, results that outlive their workspace,
# concurrent solves, the batched engine's byte-identity with one-at-a-time
# solves and the gateway's cancel-while-queued path. -short skips only the
# wall-clock regret test, which needs a quiet machine and runs in the full
# suite below.
go test -count=1 -run 'SteadyStateAllocs|ArenaGrowth' ./internal/gbd/
go test -race -short ./internal/gbd/ ./internal/fleet/ ./internal/serve/

echo "==> go test -race ./..."
# The suite runs the commands end to end in process: a traced gateway job
# followed over SSE and drained by SIGTERM (TestRunSolvesTracesAndDrains),
# a figure run under -verify (TestFigureRunUnderVerify) and the deployment
# on an in-memory chain node (TestOrgsSettleAgainstNode), beside the
# auditor's mutation self-tests.
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
# Job events and the status document are append-built; their oracle is
# encoding/json over the struct forms in encode_test.go.
go test -run '^$' -fuzz '^FuzzJobDocuments$' -fuzztime 15s ./internal/serve/
# The status document lays its results out with jsonx.AppendIndent, which
# must write json.Indent's bytes for anything json.Compact writes.
go test -run '^$' -fuzz '^FuzzAppendIndentMatchesJSON$' -fuzztime 5s ./internal/jsonx/
# randx's lazily seeded source must stay stream-identical to math/rand:
# every seeded figure, golden hash and account key rests on it.
go test -run '^$' -fuzz '^FuzzSourceMatchesMathRand$' -fuzztime 15s ./internal/randx/
# DBR's endpoint certificate must return the golden-section search's bits
# for every candidate and solve, whatever game and tolerance it is handed.
go test -run '^$' -fuzz '^FuzzCertificateEquivalence$' -fuzztime 5s ./internal/dbr/
# NormalizeRho's skip rule must leave the ρ bits and the factor of the loop
# it replaced (the oracle in normalize_test.go), with no more row sums.
go test -run '^$' -fuzz '^FuzzNormalizeRhoMatchesReference$' -fuzztime 5s ./internal/game/

echo "==> bench regression smoke"
sleep "${BENCH_SETTLE_SECS:-15}" # let CPU contention from the race suite drain
BENCH_TIME="${BENCH_TIME:-100ms}" BENCH_COUNT="${BENCH_COUNT:-4}" scripts/bench.sh >/dev/null
BENCH_MAX_REGRESSION_PCT="${BENCH_MAX_REGRESSION_PCT:-100}" scripts/bench-compare.sh

echo "==> fleet throughput gate"
# Within-profile ratios (speedup over naive, auto vs best fixed plan), so
# machine-load noise partially cancels. plan=auto and plan=dbr share the code
# path for four of the corpus's six sizes, so the regret cap is the one
# number benchcmp defaults to and DESIGN.md §12 states: 20%, which holds on a
# shared host. The speedup floor stays loose here; FLEET_MIN_SPEEDUP=3 is the
# quiet-machine contract.
go run ./scripts/benchcmp fleet-gate \
  -min-speedup "${FLEET_MIN_SPEEDUP:-2}" \
  -max-regret "${FLEET_MAX_REGRET_PCT:-20}" \
  -min-solves-per-sec "${FLEET_MIN_SOLVES_PER_SEC:-1000}" \
  BENCH_latest.json

echo "==> chain settlement throughput gate"
# An absolute floor on BenchmarkChainSettle's settled-tx throughput (129
# txs, one batch, one sealed block on a WAL-backed chain). The chain has one
# settlement path, so there is no within-profile ratio to gate on; the floor
# sits ~10x under this hardware's reading and only catches a collapse. The
# audit half of a settlement skips the ed25519 check of every transaction its admission
# witness covers; the witness suite plays the adversaries (a re-sealing
# authority, a damaged witness, every replay path) under -race first, so a
# fast audit that stopped being a sound one fails here and not in a profile.
go test -race -count=1 -run 'Witness|Tamper' ./internal/chain/
go run ./scripts/benchcmp chain-gate \
  -min-tx-per-sec "${CHAIN_MIN_TX_PER_SEC:-1000}" \
  -txs-per-op 129 \
  BENCH_latest.json

echo "==> obs tracing overhead gate (in-process A/B)"
# Tracing must not tax the solver hot path: fleet batch solves with
# tracing enabled must stay within OBS_TRACE_MAX_PCT of untraced CPU
# time, and the outputs must be byte-identical. scripts/obsgate
# interleaves traced/untraced reps of the BenchmarkFleetSolve workload
# inside one process and compares the median per-pair process-CPU ratio —
# process-level bench A/B (the naive design) reads 10-60% regressions
# from machine-load noise alone on shared hardware. -plan dbr / -plan
# pruned isolate the two solver paths when chasing a failure. The
# untraced side records nothing, so the gate prices the whole recorded
# path (≈2.5% on a shared 2-vCPU VM). One pair is two ~2 ms batches; 61
# pairs narrow the median's run-to-run spread from about ±4.5 points at
# 15 pairs to about ±2.
go run ./scripts/obsgate -plan "${OBS_AB_PLAN:-auto}" \
  -reps "${OBS_AB_PAIRS:-61}" -max-pct "${OBS_TRACE_MAX_PCT:-3}"

echo "==> durability-gate (WAL/recovery suite, crash-restart soaks, group-commit throughput)"
# The chain's durability contract, in three parts. First the focused
# WAL/recovery/failover suites under -race: frame torn-tail handling,
# replay exactness, PITR, old-format conversion, standby promotion and
# term fencing —
# plus the settlement suite (executor-vs-reference equivalence with its
# golden pin, transfers, batch submission, dedup-horizon eviction, read-path
# contention, prefix replay). The pattern selects by name, so a rename can
# silently empty it: the guard fails the gate if it matches nothing.
DURABILITY_TESTS='WAL|Recover|Durable|Snapshot|Checkpoint|PITR|OldFormat|Standby|Replicat|Fencing|Term|ZeroPadding|ZeroExtend|Frame|TornTail|Batch|Equivalence|Horizon|Contention|Transfer|Prefix'
go test -list "$DURABILITY_TESTS" ./internal/chain/ | grep -c '^Test' >/dev/null || { echo "durability-gate: pattern selects no test in ./internal/chain/" >&2; exit 1; }
go test -race -run "$DURABILITY_TESTS" ./internal/chain/ ./internal/durable/
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
# guard fails the gate if a rename empties the pattern.
CRASH_SOAKS='^(TestCrashSoakBatched|TestCrashRestartSoak|TestCrashSoakBatchedRPCFaults)$'
[ "$(go test -list "$CRASH_SOAKS" ./internal/chaos/ | grep -c '^Test')" -eq 3 ] \
  || { echo "durability-gate: crash-soak pattern does not select its 3 tests" >&2; exit 1; }
go test -count=25 -run "$CRASH_SOAKS" ./internal/chaos/
# Group-commit throughput: WAL-on SubmitTx must stay near the in-memory
# baseline. The 10% contract holds on a quiet machine (pin WAL_MAX_PCT=10
# there); on this gate's shared hardware the per-op block-until-durable
# parking inflates even the crypto between commits, so the default backstop
# is relaxed to catch only structural collapses (e.g. group commit
# degrading to one fsync per append). See scripts/walgate for the ABBA
# in-process methodology.
go run ./scripts/walgate -max-pct "${WAL_MAX_PCT:-50}"

echo "==> CI OK"
