#!/usr/bin/env bash
# Regression gate for the verification data plane. (The pool epoch itself
# is gated by epoch_bench, which scripts/ci.sh runs next.)
#
# Re-measures verify_bench in smoke mode (BENCH_SMOKE=1: smaller shapes,
# shorter timing budget — the same regimes at a fraction of the
# wall-clock) and fails if a headline number fell too far below its
# committed baseline in BENCH_verify.json, or the observability overhead
# on the replay path rose above its bar. Every timed gate compares a
# *ratio*: a row against a reference row that runs code still differing
# from it, the two timed in five interleaved rounds (the order reversed
# every other round) and the median per-round ratio kept. A host whose
# speed drifts moves both sides of a round together, so the gate holds on
# unchanged code; absolute MB/s are printed for information.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f BENCH_verify.json ]; then
    echo "no committed BENCH_verify.json baseline; run scripts/bench_verify.sh first" >&2
    exit 1
fi

export CARGO_NET_OFFLINE=true
mkdir -p target
BENCH_SMOKE=1 cargo run --release -p rpol-bench --bin verify_bench -- target/BENCH_verify.fresh.json

python3 - <<'EOF'
import json

# --- Verification data plane. Each hashing row carries its
# `speedup_vs_scalar`, the median of five interleaved rounds against a
# reference that runs different code: commitment hashing against the portable
# one-stream-per-checkpoint SHA-256 (`commit_hash_portable`), the streamed
# LSH hash against the scalar chain (`lsh_digest_scalar`). A fresh ratio
# must keep 0.8x of the committed one. The committed file carries one row
# per SHA-256 tier of the host that recorded it; a fresh run is held to the
# committed row of the tier *it* dispatched to (its fastest tier row), so
# the bar means the same on a host without SHA extensions.
base = {r["op"]: r for r in json.load(open("BENCH_verify.json"))}
fresh = {r["op"]: r for r in json.load(open("target/BENCH_verify.fresh.json"))}
tiers = ("commit_hash_sha_ni", "commit_hash_lanes8", "commit_hash_portable")
fresh_tier = next(op for op in tiers if op in fresh)
base_tier = next(op for op in tiers if op in base)
assert fresh_tier in base, \
    f"committed BENCH_verify.json has no {fresh_tier} row; re-record it (scripts/bench_verify.sh)"


def ratio_gate(op, committed):
    f, b = fresh[op], committed
    print(f"{op}: fresh {f['speedup_vs_scalar']:.2f}x vs committed {b['speedup_vs_scalar']:.2f}x "
          f"({b['op']}) over its reference; {f['mb_per_s']:.0f} MB/s fresh, "
          f"{b['mb_per_s']:.0f} MB/s committed (information)")
    assert f["speedup_vs_scalar"] >= 0.8 * b["speedup_vs_scalar"], \
        f"{op} lost >20% of its committed speedup over its reference"


ratio_gate("commit_hash_batch", base[fresh_tier])
if fresh_tier == base_tier:
    ratio_gate("commit_hash_quant", base["commit_hash_quant"])
else:
    print(f"commit_hash_quant: committed on {base_tier}, this host runs {fresh_tier}; "
          "ratio gate skipped, quantized-edge gate below still applies")

# --- LSH digests: the streamed pass (rows derived as they are folded) is
# the manager's and every worker's hash. Its rows keep one shape in smoke
# and full runs. The gated row runs on one lane, as its scalar reference
# does; split across the executor's lanes, its time also measures what
# else the host's second vCPU runs, so that row is printed only.
assert base["lsh_digest_streamed"]["shape"] == fresh["lsh_digest_streamed"]["shape"], \
    f"lsh_digest_streamed shape {fresh['lsh_digest_streamed']['shape']} != committed"
ratio_gate("lsh_digest_streamed", base["lsh_digest_streamed"])
lanes = fresh["lsh_digest_streamed_lanes"]
print(f"lsh_digest_streamed_lanes: {lanes['ns_per_iter'] / 1e6:.1f} ms a pass, "
      f"{lanes['speedup_vs_scalar']:.2f}x over the one-thread reference (information)")

# --- Quantized digests (RPoLv3): hashing the bf16 image must keep its
# byte-halving edge over the full-precision batch hasher.
quant_edge = base["commit_hash_batch"]["ns_per_iter"] / base["commit_hash_quant"]["ns_per_iter"]
print(f"commit_hash_quant: committed {quant_edge:.2f}x over full-precision batch (bar: 1.5x)")
assert quant_edge >= 1.5, f"committed quantized digest edge {quant_edge:.2f}x below the 1.5x bar"
fresh_edge = fresh["commit_hash_batch"]["ns_per_iter"] / fresh["commit_hash_quant"]["ns_per_iter"]
print(f"commit_hash_quant: fresh smoke {fresh_edge:.2f}x over full-precision batch")
assert fresh_edge >= 1.2, f"fresh quantized digest edge {fresh_edge:.2f}x lost the byte-halving win"

# --- Packed wire framing (RPoLv3): raw/packed size ratio is deterministic,
# so it is gated at full strength in both baselines. 2.5x ≙ the 60%
# payload-byte reduction of a ~1.5 B/weight block (lo plane + a nibble of
# hi plane) against 4 B/weight; a block that fell back to the raw hi plane
# reads 2x and fails.
for name, doc in (("committed", base), ("fresh", fresh)):
    ratio = doc["wire_submission_packed"]["speedup_vs_scalar"]
    print(f"wire_submission_packed ({name}): {ratio:.2f}x raw/packed (bar: 2.5x)")
    assert ratio >= 2.5, f"{name} packed framing below the 60% reduction bar ({ratio:.2f}x)"

for name, doc in (("committed", base), ("fresh", fresh)):
    for op in ("verify_samples_e2e_v2", "verify_samples_e2e_v3"):
        assert op in doc, f"{op} missing from {name} BENCH_verify"
print("verify_samples_e2e_{v2,v3} present in committed and fresh baselines")

# --- Observability overhead on the verify hot path: each row's median
# per-round `noop / obs` time ratio, timed in the same interleaved rounds as
# the noop replay (`verify_samples_e2e_v2`), so its inverse is the overhead.
# A *disabled* recorder (pure enabled() guards) may cost at most 25%, full
# recording (drained every pass) at most 75%.
for op, bar in (("verify_samples_e2e_v2_obs_disabled", 1.25),
                ("verify_samples_e2e_v2_obs_enabled", 1.75)):
    overhead = 1 / fresh[op]["speedup_vs_scalar"]
    print(f"{op}: {overhead:.2f}x of noop, median of the rounds (bar: {bar}x)")
    assert overhead <= bar, f"{op} costs {overhead:.2f}x of noop on the verify path (bar: {bar}x)"
EOF
echo "no regression vs committed BENCH_verify.json"
