#!/usr/bin/env bash
# Smoke test for the observability pipeline.
#
# Runs a 2-epoch faulty pool on one executor lane with
# --trace-out/--metrics-out, then uses `rpol trace-check` to assert the
# trace parses line-by-line through crates/json and contains the required
# span/event names. A second run with the same seed must reproduce the
# trace byte-for-byte (the width-1 determinism contract of DESIGN.md §11,
# §12). A third run four lanes wide must export the executor's scheduling
# metrics — task counts and the queue-depth peak; its trace is *not*
# byte-compared (only the sorted event multiset is deterministic under
# work stealing, which the rpol test suite asserts).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
mkdir -p target
TRACE=target/trace_smoke.jsonl
TRACE2=target/trace_smoke.again.jsonl
METRICS=target/trace_smoke.metrics.json

run_pool() {
    RPOL_EXEC_THREADS=1 cargo run --release -q -p rpol-cli --bin rpol -- pool \
        --workers=3 --adversaries=1 --epochs=2 --faults=lossy \
        --trace-out="$1" --metrics-out="$METRICS" >/dev/null
}

run_pool "$TRACE"

cargo run --release -q -p rpol-cli --bin rpol -- trace-check \
    --file="$TRACE" \
    --require=rpol.pool.epoch,rpol.worker.train_epoch,rpol.verify.worker,rpol.verify.replay_segment,rpol.transport.exchange,rpol.pool.phase_time

[ -s "$METRICS" ] || { echo "metrics file missing or empty" >&2; exit 1; }
grep -q '"rpol.pool.epochs":2' "$METRICS" || {
    echo "metrics missing rpol.pool.epochs=2" >&2
    exit 1
}

run_pool "$TRACE2"
cmp -s "$TRACE" "$TRACE2" || {
    echo "same-seed traces differ: determinism contract broken" >&2
    exit 1
}

# Executor queue-depth sanity: every run schedules every phase on the
# persistent pool, so a four-lane run's metrics must include the executor
# counters and a non-zero queue-depth peak gauge.
TRACE_PAR=target/trace_smoke.parallel.jsonl
METRICS_PAR=target/trace_smoke.parallel.metrics.json
RPOL_EXEC_THREADS=4 cargo run --release -q -p rpol-cli --bin rpol -- pool \
    --workers=3 --adversaries=1 --epochs=2 \
    --trace-out="$TRACE_PAR" --metrics-out="$METRICS_PAR" >/dev/null
cargo run --release -q -p rpol-cli --bin rpol -- trace-check \
    --file="$TRACE_PAR" \
    --require=rpol.pool.epoch,rpol.worker.train_epoch,rpol.verify.worker,rpol.verify.replay_segment
grep -q '"exec.tasks":' "$METRICS_PAR" || {
    echo "parallel metrics missing exec.tasks counter" >&2
    exit 1
}
grep -q '"exec.threads":4' "$METRICS_PAR" || {
    echo "parallel metrics missing exec.threads=4 gauge" >&2
    exit 1
}
python3 - "$METRICS_PAR" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
gauges = m.get("gauges", m)
counters = m.get("counters", m)
peak = gauges.get("exec.queue_depth_peak")
tasks = counters.get("exec.tasks")
assert tasks and tasks > 0, f"exec.tasks should be positive, got {tasks}"
assert peak is not None and peak >= 1, f"exec.queue_depth_peak should be >= 1, got {peak}"
print(f"executor sanity: {tasks} tasks, queue-depth peak {peak:.0f}")
EOF

echo "trace smoke OK: $(wc -l < "$TRACE") events, deterministic, metrics exported"
