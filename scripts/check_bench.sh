#!/usr/bin/env bash
# Regression gate for the verification data plane. (The pool epoch itself
# is gated by epoch_bench, which scripts/ci.sh runs next.)
#
# Re-measures verify_bench in smoke mode (BENCH_SMOKE=1: smaller shapes,
# shorter timing budget — the same regimes at a fraction of the
# wall-clock) and fails if a headline number fell too far below its
# committed baseline in BENCH_verify.json. Every throughput gate compares
# a speedup *ratio*: the fast row against a reference row that runs code
# still differing from it, the two timed in five interleaved rounds (the
# order reversed every other round) and the median per-round ratio kept.
# A host whose speed drifts moves both sides of a round together, so the
# gate holds on unchanged code; absolute MB/s are printed for information.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f BENCH_verify.json ]; then
    echo "no committed BENCH_verify.json baseline; run scripts/bench_verify.sh first" >&2
    exit 1
fi

export CARGO_NET_OFFLINE=true
mkdir -p target
BENCH_SMOKE=1 cargo run --release -p rpol-bench --bin verify_bench -- target/BENCH_verify.fresh.json

# Observability overhead on the verify hot path: the criterion bench's
# three e2e variants (noop recorder, real-but-disabled recorder, fully
# recording recorder) must all run, and the obs cost must stay bounded.
# Each case is timed for 0.25 s, so one round's ratio moves with whatever
# else the host runs in that second (a replay reads ≈ 250 or ≈ 380 µs, by
# spells of seconds): five rounds, each case its own run, the order rotated
# so that every case runs first, second and last, and the median ratio
# gated.
OBS_CASES=(verify_samples_e2e_v2 verify_samples_e2e_v2_obs_disabled verify_samples_e2e_v2_obs_enabled)
: >target/bench_obs_overhead.txt
for round in 1 2 3 4 5; do
    first=$((round % 3))
    for c in $first $(((first + 1) % 3)) $(((first + 2) % 3)); do
        cargo bench -q -p rpol-bench --bench verify -- --exact "${OBS_CASES[$c]}" \
            | sed "s/^/round $round /" | tee -a target/bench_obs_overhead.txt
    done
done

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

# The threaded e2e variant must be present in both baselines: its
# equality assertion against the batch verdict is what keeps the
# per-sample executor fan-out honest.
for name, doc in (("committed", base), ("fresh", fresh)):
    assert "verify_samples_e2e_mt" in doc, f"verify_samples_e2e_mt missing from {name} BENCH_verify"
    assert "verify_samples_e2e_v2" in doc, f"verify_samples_e2e_v2 missing from {name} BENCH_verify"
    assert "verify_samples_e2e_v3" in doc, f"verify_samples_e2e_v3 missing from {name} BENCH_verify"
print("verify_samples_e2e_{v2,v3,mt} present in committed and fresh baselines")

# --- Observability overhead (criterion, this host): all three
# verify-path variants must be present in every round, and attaching a
# recorder must not blow up the replay loop. Each round's ratios divide
# by that round's noop time; the median over the rounds is gated. Bars
# are loose because the sides were timed moments apart on a possibly
# noisy host: a *disabled* recorder (pure enabled() guards) may cost at
# most 25%, full recording at most 75%.
import statistics
rounds = {}
for line in open("target/bench_obs_overhead.txt"):
    parts = line.split()
    if "time:" in parts and parts[0] == "round":
        rounds.setdefault(int(parts[1]), {})[parts[2]] = float(parts[parts.index("time:") + 1])
assert len(rounds) >= 5, f"obs-overhead bench ran {len(rounds)} rounds, want 5"
offs, ons = [], []
for r, cases in sorted(rounds.items()):
    for need in ("verify_samples_e2e_v2", "verify_samples_e2e_v2_obs_disabled",
                 "verify_samples_e2e_v2_obs_enabled"):
        assert need in cases, f"criterion obs-overhead bench missing case {need} in round {r}"
    plain = cases["verify_samples_e2e_v2"]
    offs.append(cases["verify_samples_e2e_v2_obs_disabled"] / plain)
    ons.append(cases["verify_samples_e2e_v2_obs_enabled"] / plain)
off, on = statistics.median(offs), statistics.median(ons)
print("obs overhead on verify, per round: disabled "
      + ", ".join(f"{x:.3f}x" for x in offs) + "; enabled " + ", ".join(f"{x:.3f}x" for x in ons))
print(f"obs overhead on verify (median): disabled {off:.3f}x, enabled {on:.3f}x of noop")
assert off <= 1.25, f"disabled recorder costs {off:.2f}x on the verify path (bar: 1.25x)"
assert on <= 1.75, f"enabled recorder costs {on:.2f}x on the verify path (bar: 1.75x)"
EOF
echo "no regression vs committed BENCH_verify.json"
