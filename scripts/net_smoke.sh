#!/usr/bin/env bash
# Socket-transport smoke: a full epoch sequence over a real loopback TCP
# socket with the chaos proxy in lossy mode, via the CLI's single-process
# `serve --loopback` mode, so CI exercises the epoll ingest plane end to
# end. Fails if any worker gives up instead of receiving the server's
# shutdown, if no epoch report is printed, or if the server fell back to
# the scan pump (its summary line names the reactor that actually ran,
# from the `reactor_fallbacks` counter).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
cargo build --release -p rpol-cli

out="$(./target/release/rpol serve --loopback --workers=3 --adversaries=1 \
    --epochs=2 --faults=lossy 2>&1)"
echo "$out"

clean=$(grep -c "clean shutdown" <<<"$out" || true)
if [ "$clean" -ne 3 ]; then
    echo "net smoke: expected 3 clean worker shutdowns, saw $clean" >&2
    exit 1
fi
if ! grep -q "^epoch 2:" <<<"$out"; then
    echo "net smoke: missing epoch 2 report line" >&2
    exit 1
fi
if ! grep -q "^net: " <<<"$out"; then
    echo "net smoke: missing socket-layer counter summary" >&2
    exit 1
fi
if ! grep -q "readiness reactor" <<<"$out"; then
    echo "net smoke: server did not report the readiness reactor" >&2
    exit 1
fi
echo "net smoke OK: 3 workers, 2 epochs over loopback TCP (readiness reactor, lossy chaos)"
