#!/usr/bin/env bash
# Runs every test of every crate and holds the set of failing tests to
# scripts/known_red.txt: a failure that is not listed fails, and so does a
# listed test that passes (its line must go in the change that fixes it).
#
# Usage: scripts/check_known_red.sh [LOG]
#   LOG  an existing `cargo test --workspace --no-fail-fast` transcript to
#        judge instead of running the suite.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
log="${1:-$tmp/log}"
if [ $# -eq 0 ]; then
    cargo test --workspace --no-fail-fast >"$log" 2>&1 || true
fi

# `<binary>::<test>` of every failed test; the binary comes from cargo's
# `Running ... (target/debug/deps/<binary>-<hash>)` / `Doc-tests <crate>`
# header above it.
awk '
    /^ +Running / { bin = $NF; sub(/.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
    /^ +Doc-tests / { bin = "doc:" $2 }
    /^test .* \.\.\. FAILED$/ {
        name = $0; sub(/^test /, "", name); sub(/ \.\.\. FAILED$/, "", name)
        print bin "::" name
    }
' "$log" | sort -u >"$tmp/red"
grep -v '^#' scripts/known_red.txt | sed '/^$/d' | sort -u >"$tmp/known"

status=0
if [ "$(grep -c '^test result' "$log")" -eq 0 ]; then
    echo "no test ran (build failure?):" >&2
    tail -20 "$log" >&2
    status=1
fi
new_red="$(comm -23 "$tmp/red" "$tmp/known")"
if [ -n "$new_red" ]; then
    printf 'failing and not in scripts/known_red.txt:\n%s\n' "$new_red" >&2
    status=1
fi
now_green="$(comm -13 "$tmp/red" "$tmp/known")"
if [ -n "$now_green" ]; then
    printf 'in scripts/known_red.txt but passing (delete the line):\n%s\n' "$now_green" >&2
    status=1
fi
# A test binary that died without per-test verdicts (abort, timeout) shows
# up only as a failed target.
failed_targets="$(grep -c '^error: test failed' "$log" || true)"
red_binaries="$(sed 's/::.*//' "$tmp/red" | sort -u | wc -l)"
if [ "$failed_targets" -ne "$red_binaries" ]; then
    echo "$failed_targets test targets failed, but the failed tests name $red_binaries" >&2
    grep '^error: test failed' "$log" >&2
    status=1
fi
passed="$(awk '/^test result/ { n += $4 } END { print n + 0 }' "$log")"
echo "workspace: $passed passed, $(wc -l <"$tmp/red") failed ($(wc -l <"$tmp/known") known red)"
exit "$status"
