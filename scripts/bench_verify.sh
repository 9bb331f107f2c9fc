#!/usr/bin/env bash
# Runs the verification data-plane benchmark and emits BENCH_verify.json
# at the repo root.
#
# The JSON records, per op: ns/iter, MB/s of weight data digested, and the
# speedup over the retained scalar oracle (for commitment hashing: the
# portable compression, `commit_hash_portable`; one further row per faster
# SHA-256 tier the host has). The acceptance bar below: >= 2x on
# checkpoint commitment hashing (what `commit_v1` dispatches to vs the
# portable compression), single-threaded.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
cargo run --release -p rpol-bench --bin verify_bench -- BENCH_verify.json

# Acceptance gate: >= 2x commitment hashing.
python3 - <<'EOF'
import json
by_op = {r["op"]: r for r in json.load(open("BENCH_verify.json"))}
h = by_op["commit_hash_batch"]["speedup_vs_scalar"]
print(f"commitment hashing speedup: {h:.2f}x (bar: 2x)")
assert h >= 2.0, f"commitment hashing speedup {h:.2f}x below the 2x bar"
EOF
echo "BENCH_verify.json written"
