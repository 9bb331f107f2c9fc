#!/usr/bin/env bash
# Fault-injection matrix: sweeps loss profiles, all four schemes, seeds, a
# worker crash, an extreme straggler and the two endpoint cheats over the
# tiny demo pool, asserting on every cell that no honest worker is
# rejected and no cheat accepted, and that same-seed runs are
# byte-identical. Exercises the transport end to end, beyond what the
# unit suite samples.
#
# Usage: scripts/fault_matrix.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

BIN=target/release/examples/fault_injection
cargo build --release --example fault_injection

run() {
    echo "-- fault_injection $*"
    "$BIN" --assert-honest "$@" > /tmp/fault_matrix_run.txt
    tail -n 2 /tmp/fault_matrix_run.txt
}

echo "== profile x scheme x seed sweep"
for profile in none lossy harsh; do
    for scheme in baseline v1 v2 v3; do
        for seed in 1 2; do
            run --profile "$profile" --scheme "$scheme" --seed "$seed"
        done
    done
done

echo "== custom rates"
run --drop 0.2 --corrupt 0.05 --truncate 0.02 --seed 5

echo "== crash + straggler degradation"
run --crash 1@0 --seed 7
run --straggler 1@1e6 --profile none --seed 7
run --crash 1@1 --straggler 2@3 --workers 4 --seed 7

echo "== endpoint cheats over a lossy link: rejected, the honest never"
for scheme in v1 v2 v3; do
    run --profile lossy --scheme "$scheme" --cheat 1@swap-final --seed 7
    grep -q "rejected \[1\]" /tmp/fault_matrix_run.txt
    run --profile lossy --scheme "$scheme" --cheat 1@foreign-start --seed 7
    grep -q "rejected \[1\]" /tmp/fault_matrix_run.txt
done

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
