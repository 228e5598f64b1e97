#!/usr/bin/env bash
# Seeded crash-restart soak: runs the on-chain settlement on a WAL-backed
# chain whose validator is killed and recovered on a deterministic
# schedule while member clients retry through every outage. A green run
# asserts that every recovery reproduced the durable prefix exactly
# (height, state root, mempool), that the final chain still passes the
# wei-exact settlement and verification checks, and that a point-in-time
# recovery view rebuilds from the log.
#
# A kill cuts the WAL back to its last fsync. The kill schedule and fault
# plan are pure functions of the seed, so a failing soak reproduces from
# its spec.
#
# Usage:
#   scripts/crashloop.sh                 default soak (seed 7, 3 cycles)
#   scripts/crashloop.sh "seed=42,crashcycles=5,crashmin=20ms,crashmax=60ms,orgs=3,game=5"
#   CHAOS_SEEDS="7 42 1337" scripts/crashloop.sh   sweep several seeds
#
# Extra spec keys over chaos.sh: crashcycles crashmin crashmax waldir batch
set -euo pipefail
cd "$(dirname "$0")/.."

# crashmin/crashmax are tuned so kills land inside the settlement window
# on a fast box, and rpcfail keeps ordinary transport faults overlapping
# the outage windows. batch=1 submits through SubmitTxBatch.
DEFAULT_SPEC="crashcycles=3,crashmin=25ms,crashmax=70ms,rpcfail=0.05,orgs=3,game=5,batch=1"

BIN="$(mktemp -d)/tradefl-sim"
go build -race -o "$BIN" ./cmd/tradefl-sim

if [[ $# -ge 1 ]]; then
  echo "==> crash soak: $1"
  "$BIN" -chaos "$1"
else
  for seed in ${CHAOS_SEEDS:-7}; do
    spec="seed=$seed,$DEFAULT_SPEC"
    echo "==> crash soak: $spec"
    "$BIN" -chaos "$spec"
  done
fi

echo "==> crashloop OK"
