#!/usr/bin/env bash
# Fault-injection checks that scripts/protocol_pins.sh does not make. The
# matrix itself — loss profiles × all four schemes × seeds, custom rates, a
# worker crash, an extreme straggler and the two endpoint cheats over the
# tiny demo pool — runs once, in protocol_pins.sh: every cell with
# `--assert-honest` (no honest worker rejected), its full report diffed
# against results/protocol_pins.txt by scripts/ci.sh (each cheat cell's
# pinned epochs read `rejected [1]`). Here: one lossy, crashing cell at one
# executor lane against the default width, the `rpol pool` fault flags,
# and the refusal of a bad network model.
#
# Usage: scripts/fault_matrix.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

BIN=target/release/examples/fault_injection
cargo build --release --example fault_injection

echo "== determinism: same seed, one executor lane vs the default width"
RPOL_EXEC_THREADS=1 "$BIN" --profile lossy --crash 1@1 --seed 11 > /tmp/fault_a.txt
"$BIN" --profile lossy --crash 1@1 --seed 11 > /tmp/fault_b.txt
diff /tmp/fault_a.txt /tmp/fault_b.txt
echo "identical reports"

echo "== rpol CLI fault flags"
cargo build --release -p rpol-cli
target/release/rpol pool --workers=4 --adversaries=1 --epochs=2 --faults=lossy --fault-seed=5 \
    | grep -q "^transport:"
if target/release/rpol pool --drop=1.5 > /dev/null 2>&1; then
    echo "expected out-of-range drop rate to fail" >&2
    exit 1
fi
echo "CLI flags wired"

echo "== bad --net rejected"
if "$BIN" --net -1,1,0.1 > /dev/null 2>&1; then
    echo "expected invalid network model to fail" >&2
    exit 1
fi
echo "invalid bandwidth refused"

echo "fault matrix green"
