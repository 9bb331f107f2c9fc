#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 suite (the whole workspace).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== DESIGN.md: no larger than its committed byte cap, every code reference resolves"
# Lower the cap whenever DESIGN.md shrinks; never raise it.
DESIGN_MAX_BYTES=149979
design_bytes=$(wc -c < DESIGN.md)
if [ "$design_bytes" -gt "$DESIGN_MAX_BYTES" ]; then
    echo "DESIGN.md is $design_bytes bytes, over its cap of $DESIGN_MAX_BYTES"
    exit 1
fi
scripts/design_refs.py
scripts/design_refs.py --self-test

echo "== library size: lines per crate (printed), pub items without a caller (no more than the cap)"
# Lower the cap whenever a PR leaves fewer unused pub items; never raise it.
UNUSED_PUB_MAX=0
scripts/size.py --self-test
scripts/size.py --max-unused "$UNUSED_PUB_MAX"

echo "== cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + every test of every crate (default-members = the workspace)"
cargo build --release
cargo test -q

echo "== analytic paper tables: Table II and Table III byte-identical to results/"
for bin in table2_epoch_time table3_overhead; do
    cargo run -q --release -p rpol-bench --bin "$bin" | diff - "results/$bin.md"
done

echo "== protocol pins: epoch_bench passes and fault-matrix reports byte-identical to results/"
scripts/protocol_pins.sh | diff results/protocol_pins.txt -

echo "== stitched socket traces: byte-identical under contention, three times over"
for _ in 1 2 3; do
    RPOL_EXEC_THREADS=8 cargo test -q -p rpol --test net_parity --test net_status
done

echo "== the one pump, both kinds of connection: server unit tests at executor widths 1 and 8"
for threads in 1 8; do
    RPOL_EXEC_THREADS=$threads cargo test -q -p rpol --lib server::
done

echo "== executor: 8-thread pass (scheduling + determinism under contention, exact exec.tasks count)"
RPOL_EXEC_THREADS=8 cargo test -q -p rpol-exec
RPOL_EXEC_THREADS=8 cargo test -q -p rpol --test epoch_matrix --test obs_determinism

echo "== executor: 1-lane pass (the byte-exact reference as the default width; the socket server's calibration shares that lane with its training window)"
RPOL_EXEC_THREADS=1 cargo test -q -p rpol --test epoch_matrix --test obs_determinism
RPOL_EXEC_THREADS=1 cargo test -q -p rpol --test net_parity

echo "== GEMM on the executor: 8-thread invariance + quantizer determinism"
RPOL_EXEC_THREADS=8 cargo test -q -p rpol-tensor

echo "== synthetic data on the shared executor: the serial loop at width 1, its block driver at width 8"
for threads in 1 8; do
    RPOL_EXEC_THREADS=$threads cargo test -q -p rpol-nn
done

echo "== as production runs them: tensor + nn + sim + crypto + lsh suites, the training step, the calibration pins, the commitment rows and the wire codec (with its hostile-input properties) in --release"
cargo test -q --release -p rpol-tensor -p rpol-nn -p rpol-sim -p rpol-crypto -p rpol-lsh
cargo test -q --release -p rpol --lib trainer::
cargo test -q --release -p rpol --lib calibrate::
cargo test -q --release -p rpol --lib commitment::
cargo test -q --release -p rpol --lib wire::
cargo test -q --release -p rpol --test wire_robustness

echo "== Gaussian blocks: 2^28 draws against the libm expression, 0 mismatches"
cargo test -q --release -p rpol-tensor -- --ignored fill_normal_soak --nocapture

echo "== PCG stream: 2^28 outputs of the 32-lane block against next_u32, 0 mismatches"
cargo test -q --release -p rpol-tensor -- --ignored pcg_stream_soak --nocapture

echo "== hostile frames: 100k seeded byte sequences through the in-memory reactor, no panic, no leak; the link's delivery predicate against frame_payload on 10^6 mutated frames"
cargo test -q --release -p rpol --lib -- --ignored hostile_frames_soak delivery_predicate_soak

echo "== fault-injection matrix"
scripts/fault_matrix.sh

echo "== bench smoke: verification data plane vs committed baseline"
scripts/check_bench.sh

echo "== peak memory by construction: socket_v1_lossy under glibc defaults vs one arena + fixed mmap threshold"
scripts/alloc_weather.sh

echo "== epoch benchmark gates: equivalence, socket-vs-in-process parity, 0 failed operations"
cargo run --release -p rpol-bench --bin epoch_bench -- --smoke
cargo test -q -p rpol-bench --bin epoch_bench

echo "== net smoke: full epoch over loopback TCP, readiness reactor, lossy chaos"
scripts/net_smoke.sh

echo "== trace smoke: observability pipeline"
scripts/trace_smoke.sh

echo "== obs e2e: multi-process trace stitching + live status plane"
scripts/obs_e2e.sh

echo "CI green"
