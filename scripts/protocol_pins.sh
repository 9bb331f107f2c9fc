#!/usr/bin/env bash
# Prints every protocol-visible output the manager<->worker code must hold
# fixed across a refactor of the link or the socket: one `epoch_bench pass`
# per workload (native, plus the link source of the two socket workloads)
# with its wall / cpu / rss fields stripped, and the full `fault_injection`
# report of every cell of the fault matrix: loss profiles x schemes x seeds,
# custom rates, crash and straggler, the endpoint cheats (each run with
# `--assert-honest`, which exits 1 if an honest worker is rejected or a
# cheat accepted) and three cells without it. The matrix runs only here;
# scripts/fault_matrix.sh adds the checks a pinned report cannot make.
#
# Usage: scripts/protocol_pins.sh [release-dir] > /tmp/pins.txt
#        diff results/protocol_pins.txt /tmp/pins.txt
# release-dir defaults to target/release (built here when it is the default).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

DIR=${1:-target/release}
if [ $# -eq 0 ]; then
    cargo build --release -q -p rpol-bench --bin epoch_bench
    cargo build --release -q --example fault_injection
fi

strip() {
    sed -E 's/"(wall_s|run_wall_s|pass_wall_s|cpu_s|peak_rss_kb)":[0-9.eE+-]+,?//g'
}

for pass in "flat_baseline native" "flat_v2 native" "socket_v3 native" \
    "socket_v1_lossy native" "socket_v3 inprocess" "socket_v1_lossy inprocess"; do
    echo "-- epoch_bench pass $pass 42 3 full"
    # shellcheck disable=SC2086
    "$DIR/epoch_bench" pass $pass 42 3 full | strip
    echo
done

cell() {
    echo "-- fault_injection $*"
    "$DIR/examples/fault_injection" "$@"
}
for profile in none lossy harsh; do
    for scheme in baseline v1 v2 v3; do
        for seed in 1 2; do
            cell --assert-honest --profile "$profile" --scheme "$scheme" --seed "$seed"
        done
    done
done
cell --assert-honest --drop 0.2 --corrupt 0.05 --truncate 0.02 --seed 5
cell --assert-honest --crash 1@0 --seed 7
cell --assert-honest --straggler 1@1e6 --profile none --seed 7
cell --assert-honest --crash 1@1 --straggler 2@3 --workers 4 --seed 7
for scheme in v1 v2 v3; do
    cell --assert-honest --profile lossy --scheme "$scheme" --cheat 1@swap-final --seed 7
    cell --assert-honest --profile lossy --scheme "$scheme" --cheat 1@foreign-start --seed 7
done
cell --profile lossy --crash 1@1 --seed 11
# Lost packed uploads: two submissions, then one opening, whose draws exhaust.
cell --scheme v3 --drop 0.6 --workers 4 --seed 4
cell --scheme v3 --drop 0.45 --corrupt 0.1 --truncate 0.05 --seed 1
