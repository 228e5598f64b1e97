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
  "$DRIFT_DIR/tradefl-sim" -fig "$fig" -summary none -log-level error -out "$DRIFT_DIR" >/dev/null
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

echo "==> verify gate (invariant auditor under -race + mutation self-tests)"
# The mutation suite injects one seeded violation per invariant family and
# requires the matching check to fire: a silent auditor fails the gate, not
# just a wrong one. The clean half (including the differential harness
# cross-running CGBD against an independent exhaustive solver) runs under
# -race because the hooks are installed process-globally.
go test -race ./internal/verify/
go test -count=1 -run Mutation ./internal/verify/

echo "==> go test -race ./..."
go test -race ./...

echo "==> diag smoke (tradefl-sim -diag-addr)"
DIAG_ADDR="${DIAG_ADDR:-127.0.0.1:6161}"
DIAG_BIN="$(mktemp -d)/tradefl-sim"
go build -o "$DIAG_BIN" ./cmd/tradefl-sim
"$DIAG_BIN" -fig fig5 -quick -summary none -verify \
  -diag-addr "$DIAG_ADDR" -diag-hold 60s >/dev/null &
SIM_PID=$!
trap 'kill "$SIM_PID" 2>/dev/null || true' EXIT
up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$DIAG_ADDR/healthz" 2>/dev/null | grep -q '"status":"ok"'; then
    up=1
    break
  fi
  sleep 0.2
done
[ "$up" -eq 1 ] || { echo "diag smoke: /healthz never became healthy"; exit 1; }
metrics="$(curl -fsS "http://$DIAG_ADDR/metrics")"
for name in tradefl_gbd_iterations_total tradefl_dbr_rounds_total tradefl_fl_rounds_total; do
  echo "$metrics" | grep -q "^$name " || { echo "diag smoke: $name missing from /metrics"; exit 1; }
done
echo "$metrics" | grep -q '^tradefl_dbr_rounds_total [1-9]' \
  || { echo "diag smoke: tradefl_dbr_rounds_total still zero after a DBR run"; exit 1; }
# -verify was armed above: the auditor must have run checks and found
# nothing (a nonzero violation count would also fail the sim's exit code).
echo "$metrics" | grep -q '^tradefl_verify_checks_total [1-9]' \
  || { echo "diag smoke: tradefl_verify_checks_total zero with -verify armed"; exit 1; }
echo "$metrics" | grep -q '^tradefl_verify_violations_total 0' \
  || { echo "diag smoke: verify violations recorded on a clean run"; exit 1; }
kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true
trap - EXIT

echo "==> deployment smoke (examples/distributed)"
# The paper's deployment story end to end: six organizations agree on the
# equilibrium over TCP, then settle it on a chain node over JSON-RPC, one
# batch and one sealed block per stage of chain.NewSettlement.
dist_out="$(go run ./examples/distributed)"
echo "$dist_out" | grep -q 'Settled:true' \
  || { echo "deployment smoke: the contract did not settle"; exit 1; }
echo "$dist_out" | grep -q 'chain verified' \
  || { echo "deployment smoke: the chain did not verify"; exit 1; }

echo "==> chaos smoke (seeded soak under -race)"
# Fault schedule is a pure function of the seed: a failure here reproduces
# exactly via `scripts/chaos.sh "<spec>"`. The soak fails the gate if the
# ring misses the fault-free Nash equilibrium or the settlement contract
# leaks a single wei.
scripts/chaos.sh "seed=${CHAOS_SEED:-7},drop=0.15,dup=0.05,delayp=0.1,delaymax=15ms,rpcfail=0.1,rpclost=0.05,orgs=3,game=5"

echo "==> obs-v2 gate (tracing, flight recorder, trajectories)"
# Race-check the instrumentation fabric itself first: spans, the flight
# ring and trace propagation are touched from every worker goroutine.
go test -race ./internal/obs/ ./internal/transport/
OBS_DIR="$(mktemp -d)"
OBS_BIN="$OBS_DIR/tradefl-sim"
go build -o "$OBS_BIN" ./cmd/tradefl-sim

# A seeded traced soak must export one trace that crosses the solver, the
# ring and the chain — the cross-process propagation contract. Foreground:
# -trace-out flushes on exit, which a killed background run would skip.
"$OBS_BIN" -chaos "seed=${CHAOS_SEED:-7},drop=0.1,dup=0.05,orgs=3,game=5" \
  -trace-out "$OBS_DIR/chaos-trace.json" >/dev/null
go run ./scripts/tracecheck -min-components 3 "$OBS_DIR/chaos-trace.json"

# A traced fleet batch must join solver spans to the batch trace.
# plan=pruned forces the CGBD path.
"$OBS_BIN" -fleet 64 -plan pruned -summary none \
  -trace-out "$OBS_DIR/fleet-trace.json" >/dev/null
go run ./scripts/tracecheck -min-components 2 "$OBS_DIR/fleet-trace.json"

# Live endpoints on a held, traced diag server: /tracez, /runz and /flightz.
OBS_ADDR="${OBS_ADDR:-127.0.0.1:6162}"
"$OBS_BIN" -fleet 32 -plan pruned -summary none \
  -diag-addr "$OBS_ADDR" -diag-hold 60s -trace-out "$OBS_DIR/held.json" >/dev/null &
OBS_PID=$!
trap 'kill "$OBS_PID" 2>/dev/null || true' EXIT
up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$OBS_ADDR/healthz" 2>/dev/null | grep -q '"status":"ok"'; then
    up=1
    break
  fi
  sleep 0.2
done
[ "$up" -eq 1 ] || { echo "obs smoke: /healthz never became healthy"; exit 1; }
curl -fsS "http://$OBS_ADDR/tracez" > "$OBS_DIR/tracez.json"
go run ./scripts/tracecheck -min-components 2 "$OBS_DIR/tracez.json"
# The CGBD convergence series lives on /runz: the last solve's bound gap
# must be a non-empty array (indented JSON: an empty one renders "[]").
curl -fsS "http://$OBS_ADDR/runz" > "$OBS_DIR/runz.json"
grep -qE '"gbd\.gap": \[$' "$OBS_DIR/runz.json" \
  || { echo "obs smoke: /runz has no gbd.gap trajectory"; exit 1; }
curl -fsS "http://$OBS_ADDR/flightz" | grep -q '"reason"' \
  || { echo "obs smoke: /flightz returned no flight dump"; exit 1; }
kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true
trap - EXIT

echo "==> serve gate (gateway suite under -race + live HTTP smoke)"
# The gateway's contract is byte-identity with core.RunBatch under
# concurrent multi-tenant load, so its suite (including the 64-tenant
# soak) runs under -race first. Then a live smoke: boot tradefl-server,
# create a job over HTTP, follow the SSE progress stream to completion
# and require every streamed instance result to match a local
# core.RunBatch over the same seeded corpus, field for field. The drain
# check sends SIGTERM and requires a clean exit (graceful drain).
# Between the two, the spec decoder's differential fuzz: ParseJobSpec must
# answer arbitrary bytes exactly as its encoding/json-only oracle does.
go vet ./internal/serve/ ./cmd/tradefl-server/ ./scripts/servegate/
go test -race -count=1 ./internal/serve/
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
SERVE_DIR="$(mktemp -d)"
SERVE_BIN="$SERVE_DIR/tradefl-server"
go build -o "$SERVE_BIN" ./cmd/tradefl-server
SERVE_ADDR="${SERVE_ADDR:-127.0.0.1:6163}"
"$SERVE_BIN" -listen "$SERVE_ADDR" >/dev/null &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
up=0
for _ in $(seq 1 50); do
  if curl -fsS "http://$SERVE_ADDR/healthz" 2>/dev/null | grep -q '"status": "ok"'; then
    up=1
    break
  fi
  sleep 0.2
done
[ "$up" -eq 1 ] || { echo "serve smoke: /healthz never became healthy"; exit 1; }
go run ./scripts/servegate -addr "$SERVE_ADDR" -count 3 -n 4 -seed 41
# Oversized bodies get an explicit 413 at the gateway edge, same as the
# chain RPC fix this gate rides with.
code="$(head -c 2097152 /dev/zero | tr '\0' 'x' | \
  curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- "http://$SERVE_ADDR/v1/jobs")"
[ "$code" = "413" ] || { echo "serve smoke: oversized body got $code, want 413"; exit 1; }
kill -TERM "$SERVE_PID" 2>/dev/null || true
drained=1
wait "$SERVE_PID" || drained=0
[ "$drained" -eq 1 ] || { echo "serve smoke: SIGTERM drain exited nonzero"; exit 1; }
trap - EXIT

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

echo "==> durability-gate (WAL/recovery suite, crash-restart soak, group-commit throughput)"
# The chain's durability contract, in three parts. First the focused
# WAL/recovery/failover suites under -race: frame torn-tail handling,
# replay exactness, snapshot + PITR, standby promotion and term fencing —
# plus the settlement suite (executor-vs-reference equivalence with its
# golden pin, transfers, batch submission, dedup-horizon eviction, read-path
# contention, prefix replay). The pattern selects by name, so a rename can
# silently empty it: the guard fails the gate if it matches nothing.
DURABILITY_TESTS='WAL|Recover|Durable|Snapshot|Checkpoint|PITR|Standby|Replicat|Fencing|Term|ZeroPadding|ZeroExtend|Frame|TornTail|Mempool|Batch|Equivalence|Horizon|Contention|Transfer|Prefix'
go test -list "$DURABILITY_TESTS" ./internal/chain/ | grep -c '^Test' >/dev/null || { echo "durability-gate: pattern selects no test in ./internal/chain/" >&2; exit 1; }
go test -race -run "$DURABILITY_TESTS" ./internal/chain/ ./internal/durable/
# One seeded crash-restart soak: kill -9 the validator on a deterministic
# schedule mid-settlement, recover from snapshot + log each time, and
# require every recovery to reproduce the durable prefix exactly (height,
# state root, mempool), the wei-exact settlement check on the final
# incarnation, and a point-in-time recovery view. batch=1 drives
# submission through SubmitTxBatch, so the cycles land on batched group
# commits. Reproduce a failure with `scripts/crashloop.sh "<spec>"`.
scripts/crashloop.sh "seed=${CHAOS_SEED:-7},crashcycles=3,crashmin=25ms,crashmax=70ms,snapevery=2,rpcfail=0.05,orgs=3,game=5,batch=1"
# Group-commit throughput: WAL-on SubmitTx must stay near the in-memory
# baseline. The 10% contract holds on a quiet machine (pin WAL_MAX_PCT=10
# there); on this gate's shared hardware the per-op block-until-durable
# parking inflates even the crypto between commits, so the default backstop
# is relaxed to catch only structural collapses (e.g. group commit
# degrading to one fsync per append). See scripts/walgate for the ABBA
# in-process methodology.
go run ./scripts/walgate -max-pct "${WAL_MAX_PCT:-50}"

echo "==> CI OK"
