#!/usr/bin/env bash
# Peak memory by construction: the `socket_v1_lossy` pass must not depend on
# how glibc's allocator is tuned. Runs the pass RUNS times under glibc's
# defaults and RUNS times under one malloc arena with a fixed mmap
# threshold, alternating the two settings run by run, and fails unless
#   - every run prints the same JSON outside its wall / cpu / rss fields;
#   - the two settings' median `peak_rss_kb` lie within 4 MB.
# Per-thread arenas that each keep a freed pass put them ~14 MB apart; the
# process-wide buffer pool (`rpol_tensor::scratch`) keeps them together.
# One run's peak moves by ~2 MB with how the threads' passes happen to
# overlap, and a loaded host can spike a couple of runs in a row: five
# runs a side, interleaved so a busy spell falls on both settings, and
# medians compared.
#
# Usage: scripts/alloc_weather.sh [release-dir]
# release-dir defaults to target/release (built here when it is the default).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

DIR=${1:-target/release}
if [ $# -eq 0 ]; then
    cargo build --release -q -p rpol-bench --bin epoch_bench
fi
LIMIT_KB=4096

strip() {
    sed -E 's/"(wall_s|run_wall_s|pass_wall_s|cpu_s|peak_rss_kb)":[0-9.eE+-]+,?//g'
}
peak_kb() {
    sed -E 's/.*"peak_rss_kb":([0-9]+).*/\1/'
}

RUNS=5
want=""
declare -A runs=([default]="" [pinned]="")
for i in $(seq "$RUNS"); do
    order="default pinned"
    if [ $((i % 2)) -eq 0 ]; then
        order="pinned default"
    fi
    for setting in $order; do
        if [ "$setting" = default ]; then
            line=$(env -u MALLOC_ARENA_MAX -u MALLOC_MMAP_THRESHOLD_ \
                "$DIR/epoch_bench" pass socket_v1_lossy native 42 3 full)
        else
            line=$(MALLOC_ARENA_MAX=1 MALLOC_MMAP_THRESHOLD_=131072 \
                "$DIR/epoch_bench" pass socket_v1_lossy native 42 3 full)
        fi
        got=$(strip <<<"$line")
        if [ -z "$want" ]; then
            want=$got
        elif [ "$got" != "$want" ]; then
            echo "alloc_weather: a $setting run moved outside wall/cpu/rss:" >&2
            diff <(echo "$want") <(echo "$got") >&2 || true
            exit 1
        fi
        runs[$setting]+="$(peak_kb <<<"$line") "
    done
done

declare -A peaks
for setting in default pinned; do
    peaks[$setting]=$(printf '%s\n' ${runs[$setting]} | sort -n | sed -n "$(((RUNS + 1) / 2))p")
    echo "$setting: peak_rss_kb ${runs[$setting]}(median ${peaks[$setting]})"
done

gap=$((peaks[default] - peaks[pinned]))
gap=${gap#-}
echo "gap: $gap kB (limit $LIMIT_KB kB)"
if [ "$gap" -gt "$LIMIT_KB" ]; then
    echo "alloc_weather: peak memory depends on the allocator's settings" >&2
    exit 1
fi
