#!/usr/bin/env bash
# Runs the verification data-plane benchmark and emits BENCH_verify.json
# at the repo root.
#
# The JSON records, per op: ns/iter, MB/s of weight data digested, and the
# speedup over the retained scalar oracle (for commitment hashing: the
# portable compression, `commit_hash_portable`; one further row per faster
# SHA-256 tier the host has). The acceptance bars below match the issue:
# >= 2x on checkpoint commitment hashing (what `commit_v1` dispatches to vs
# the portable compression) and >= 3x on LSH digest computation (GEMM-lowered
# projections vs the scalar dot-product chain), both single-threaded. The
# criterion benches (`cargo bench -p rpol-bench --bench verify`) give
# finer-grained numbers when needed.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
cargo run --release -p rpol-bench --bin verify_bench -- BENCH_verify.json

# Acceptance gate: >= 2x commitment hashing, >= 3x LSH digests.
python3 - <<'EOF'
import json
by_op = {r["op"]: r for r in json.load(open("BENCH_verify.json"))}
h = by_op["commit_hash_batch"]["speedup_vs_scalar"]
l = by_op["lsh_digest_gemm_1t"]["speedup_vs_scalar"]
print(f"commitment hashing speedup: {h:.2f}x (bar: 2x)")
print(f"LSH digest speedup (1 thread): {l:.2f}x (bar: 3x)")
assert h >= 2.0, f"commitment hashing speedup {h:.2f}x below the 2x bar"
assert l >= 3.0, f"LSH digest speedup {l:.2f}x below the 3x bar"
EOF
echo "BENCH_verify.json written"
