#!/usr/bin/env bash
# Regression gate for the verification data plane, the socket transport
# and committee sharding. (The pool epoch itself is gated by epoch_bench,
# which scripts/ci.sh runs next.)
#
# Re-measures each benchmark in smoke mode (BENCH_SMOKE=1: smaller
# shapes, shorter timing budget — the same regimes at a fraction of the
# wall-clock) and fails if a headline number fell too far below its
# committed baseline (BENCH_verify.json, BENCH_net.json,
# BENCH_scale.json). Speedup *ratios* are compared where both sides of the
# ratio still run different code; commitment hashing is compared in MB/s
# against the committed row of the same SHA-256 tier, the streamed LSH
# hash against its committed MB/s (see the gates below).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f BENCH_verify.json ]; then
    echo "no committed BENCH_verify.json baseline; run scripts/bench_verify.sh first" >&2
    exit 1
fi
if [ ! -f BENCH_net.json ]; then
    echo "no committed BENCH_net.json baseline; run scripts/bench_net.sh first" >&2
    exit 1
fi
if [ ! -f BENCH_scale.json ]; then
    echo "no committed BENCH_scale.json baseline; run scripts/bench_scale.sh first" >&2
    exit 1
fi

export CARGO_NET_OFFLINE=true
mkdir -p target
BENCH_SMOKE=1 cargo run --release -p rpol-bench --bin verify_bench -- target/BENCH_verify.fresh.json
BENCH_SMOKE=1 cargo run --release -p rpol-bench --bin net_bench -- target/BENCH_net.fresh.json
BENCH_SMOKE=1 cargo run --release -p rpol-bench --bin pool_scale_bench -- target/BENCH_scale.fresh.json

# Observability overhead on the verify hot path: the criterion bench's
# three e2e variants (noop recorder, real-but-disabled recorder, fully
# recording recorder) must all run, and the obs cost must stay bounded.
cargo bench -p rpol-bench --bench verify -- verify_samples_e2e_v2 \
    | tee target/bench_obs_overhead.txt

python3 - <<'EOF'
import json

# --- Verification data plane. Commitment hashing is gated on absolute
# throughput: once the "scalar" side of a ratio runs on the same SHA unit
# as the batch side, the ratio reads ~1.0 and says nothing. The committed
# file carries one row per SHA-256 tier of the host that recorded it; a
# fresh run is held to the committed row of the tier *it* dispatched to
# (its fastest tier row), so the bar means the same on a host without SHA
# extensions.
base = {r["op"]: r for r in json.load(open("BENCH_verify.json"))}
fresh = {r["op"]: r for r in json.load(open("target/BENCH_verify.fresh.json"))}
tiers = ("commit_hash_sha_ni", "commit_hash_lanes8", "commit_hash_portable")
fresh_tier = next(op for op in tiers if op in fresh)
base_tier = next(op for op in tiers if op in base)
assert fresh_tier in base, \
    f"committed BENCH_verify.json has no {fresh_tier} row; re-record it (scripts/bench_verify.sh)"
b = base[fresh_tier]["mb_per_s"]
f = fresh["commit_hash_batch"]["mb_per_s"]
print(f"commit_hash_batch: fresh {f:.0f} MB/s vs committed {fresh_tier} {b:.0f} MB/s ({f / b:.2f})")
assert f >= 0.8 * b, f"commit_hash_batch fell >20% below the committed {fresh_tier} throughput"
if fresh_tier == base_tier:
    b = base["commit_hash_quant"]["mb_per_s"]
    f = fresh["commit_hash_quant"]["mb_per_s"]
    print(f"commit_hash_quant: fresh {f:.0f} MB/s vs committed {b:.0f} MB/s ({f / b:.2f})")
    assert f >= 0.8 * b, "commit_hash_quant fell >20% below the committed throughput"
else:
    print(f"commit_hash_quant: committed on {base_tier}, this host runs {fresh_tier}; "
          "throughput gate skipped, quantized-edge gate below still applies")

# --- LSH digests: the streamed pass (rows derived in lanes, folded as
# they are drawn) is the manager's and every worker's hash. Its rows keep
# one shape in smoke and full runs, so MB/s compares directly.
b, f = base["lsh_digest_streamed"], fresh["lsh_digest_streamed"]
assert b["shape"] == f["shape"], f"lsh_digest_streamed shape {f['shape']} != committed {b['shape']}"
print(f"lsh_digest_streamed: fresh {f['mb_per_s']:.1f} MB/s vs committed {b['mb_per_s']:.1f} MB/s "
      f"({f['mb_per_s'] / b['mb_per_s']:.2f})")
assert f["mb_per_s"] >= 0.8 * b["mb_per_s"], "lsh_digest_streamed fell >20% below the committed throughput"

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

# The threaded e2e variant must be present in both baselines: its
# equality assertion against the batch verdict is what keeps the
# per-sample executor fan-out honest.
for name, doc in (("committed", base), ("fresh", fresh)):
    assert "verify_samples_e2e_mt" in doc, f"verify_samples_e2e_mt missing from {name} BENCH_verify"
    assert "verify_samples_e2e_v2" in doc, f"verify_samples_e2e_v2 missing from {name} BENCH_verify"
    assert "verify_samples_e2e_v3" in doc, f"verify_samples_e2e_v3 missing from {name} BENCH_verify"
print("verify_samples_e2e_{v2,v3,mt} present in committed and fresh baselines")

# --- Socket transport: structure and positivity, committed and fresh.
# Absolute submissions/s and latency are host-dependent, so cross-host
# wall ratios are not gated — but every regime must show throughput,
# sane latency order statistics, and (under churn) ghost frames that
# really crossed the TCP wire and were rejected by the checksum.
for name, path in (("committed", "BENCH_net.json"), ("fresh", "target/BENCH_net.fresh.json")):
    doc = json.load(open(path))
    runs = {r["churn"]: r for r in doc["runs"]}
    assert set(runs) == {"ideal", "lossy", "harsh"}, \
        f"{name} BENCH_net regimes wrong: {set(runs)}"
    for regime, r in runs.items():
        assert r["submissions_per_s"] > 0, f"{name}/{regime}: no throughput"
        # Quantiles come from the log-bucketed net.epoch_latency histogram
        # (the same machinery `rpol status` reports), so they are bucket
        # upper bounds and must be monotone by construction.
        assert r["p99_epoch_latency_s"] >= r["p90_epoch_latency_s"] \
            >= r["p50_epoch_latency_s"] > 0, \
            f"{name}/{regime}: bad latency order statistics"
        assert r["pristine_submissions"] > 0, f"{name}/{regime}: nothing decoded"
    for regime in ("lossy", "harsh"):
        assert runs[regime]["corrupt_frames"] > 0, \
            f"{name}/{regime}: chaos regime put no ghosts on the wire"
    print(f"net ({name}): " + ", ".join(
        f"{k} {runs[k]['submissions_per_s']:.0f} sub/s p99 {runs[k]['p99_epoch_latency_s']:.3f}s"
        for k in ("ideal", "lossy", "harsh")))

# --- Observability overhead (criterion, this host, same run): all three
# verify-path variants must be present, and attaching a recorder must not
# blow up the replay loop. Bars are loose because both sides were timed
# moments apart on a possibly noisy host: a *disabled* recorder (pure
# enabled() guards) may cost at most 25%, full recording at most 75%.
cases = {}
for line in open("target/bench_obs_overhead.txt"):
    parts = line.split()
    if "time:" in line and parts:
        cases[parts[0]] = float(parts[parts.index("time:") + 1])
for need in ("verify_samples_e2e_v2", "verify_samples_e2e_v2_obs_disabled",
             "verify_samples_e2e_v2_obs_enabled"):
    assert need in cases, f"criterion obs-overhead bench missing case {need}"
plain = cases["verify_samples_e2e_v2"]
off = cases["verify_samples_e2e_v2_obs_disabled"] / plain
on = cases["verify_samples_e2e_v2_obs_enabled"] / plain
print(f"obs overhead on verify: disabled {off:.3f}x, enabled {on:.3f}x of noop")
assert off <= 1.25, f"disabled recorder costs {off:.2f}x on the verify path (bar: 1.25x)"
assert on <= 1.75, f"enabled recorder costs {on:.2f}x on the verify path (bar: 1.75x)"

# --- Committee sharding at scale (DESIGN.md §15): the hierarchy's value
# claims are gated on *modeled per-node* numbers (single-thread costs,
# one sub-manager per committee, serial top tier), so they hold even on a
# 1-hardware-thread host and are never skipped. The raw bench_wall_s
# fields are host-dependent and deliberately ungated.
scale_base = {s["workers"]: s for s in json.load(open("BENCH_scale.json"))["scales"]}
assert {100, 1_000, 10_000, 100_000} <= set(scale_base), \
    f"committed BENCH_scale scales wrong: {set(scale_base)}"
for n, s in scale_base.items():
    assert s["flat_epochs_per_s"] > 0 and s["hier_epochs_per_s"] > 0, f"scale {n}: no throughput"
    assert s["verdicts"] == n, f"scale {n}: not every worker judged"
    assert s["audits"] > 0, f"scale {n}: top tier audited nothing"
    assert s["audit_mismatches"] == 0, f"scale {n}: honest sub-managers mismatched"
s10k = scale_base[10_000]["modeled_speedup"]
print(f"scale (committed): 10k-worker hierarchical speedup {s10k:.1f}x (bar: 5x)")
assert s10k >= 5.0, f"committed 10k speedup {s10k:.1f}x below the 5x bar"
# Peak commitment memory: flat is linear in the roster by construction;
# the streaming hierarchy must stay near the committee size — across the
# 100x jump from 10³ to 10⁵ workers its peak may grow at most 10x.
flat_slope = scale_base[100_000]["flat_peak_bytes"] / scale_base[1_000]["flat_peak_bytes"]
hier_slope = scale_base[100_000]["hier_peak_bytes"] / scale_base[1_000]["hier_peak_bytes"]
print(f"scale (committed): 10³→10⁵ peak-bytes slope flat {flat_slope:.0f}x, hier {hier_slope:.1f}x")
assert flat_slope >= 50, f"flat peak no longer linear ({flat_slope:.0f}x over 100x workers)"
assert hier_slope <= 10, f"hierarchical peak not sub-linear ({hier_slope:.1f}x over 100x workers)"

# Fresh smoke covers the two smallest scales: the machinery must still
# judge everyone, audit cleanly, and show the committee win emerging.
scale_fresh = {s["workers"]: s for s in json.load(open("target/BENCH_scale.fresh.json"))["scales"]}
assert {100, 1_000} <= set(scale_fresh), f"fresh BENCH_scale scales wrong: {set(scale_fresh)}"
for n, s in scale_fresh.items():
    assert s["flat_epochs_per_s"] > 0 and s["hier_epochs_per_s"] > 0, f"fresh {n}: no throughput"
    assert s["verdicts"] == n, f"fresh {n}: not every worker judged"
    assert s["audit_mismatches"] == 0, f"fresh {n}: honest sub-managers mismatched"
fresh1k = scale_fresh[1_000]
print(f"scale (fresh smoke): 1k-worker speedup {fresh1k['modeled_speedup']:.1f}x, "
      f"peak {fresh1k['flat_peak_bytes']} -> {fresh1k['hier_peak_bytes']} B")
assert fresh1k["modeled_speedup"] >= 1.2, \
    f"fresh 1k speedup {fresh1k['modeled_speedup']:.1f}x lost the committee win"
assert fresh1k["hier_peak_bytes"] < fresh1k["flat_peak_bytes"], \
    "fresh 1k hierarchical peak not below flat"
EOF
echo "no regression vs committed BENCH_verify.json / BENCH_net.json / BENCH_scale.json"
