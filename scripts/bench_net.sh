#!/usr/bin/env bash
# Runs the socket-transport benchmark and emits BENCH_net.json at the
# repo root.
#
# The JSON records sustained pristine submissions/s and p50/p90/p99
# epoch-completion latency (deterministic quantiles of the server's
# log-bucketed net.epoch_latency histogram — the same machinery `rpol
# status` reports) of the loopback TCP harness (real server,
# real worker-client threads, chaos proxy on both ends) under three
# churn regimes: ideal, lossy, and harsh. Absolute rates are
# host-dependent; scripts/check_bench.sh gates structure and positivity
# plus the churn regimes actually putting ghost frames on the wire.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
cargo run --release -p rpol-bench --bin net_bench -- BENCH_net.json

python3 - <<'EOF'
import json
doc = json.load(open("BENCH_net.json"))
runs = {r["churn"]: r for r in doc["runs"]}
assert set(runs) == {"ideal", "lossy", "harsh"}, f"unexpected regimes: {set(runs)}"
for name, r in runs.items():
    assert r["submissions_per_s"] > 0, f"{name}: no throughput"
    assert r["p99_epoch_latency_s"] >= r["p90_epoch_latency_s"] \
        >= r["p50_epoch_latency_s"] > 0, f"{name}: bad latency stats"
for name in ("lossy", "harsh"):
    assert runs[name]["corrupt_frames"] > 0, f"{name}: no ghosts crossed the wire"
print("BENCH_net.json structure OK:")
for name in ("ideal", "lossy", "harsh"):
    r = runs[name]
    print(f"  {name}: {r['submissions_per_s']:.1f} sub/s, "
          f"p99 epoch {r['p99_epoch_latency_s']:.3f}s, {r['corrupt_frames']} corrupt frames")
EOF
echo "BENCH_net.json written"
