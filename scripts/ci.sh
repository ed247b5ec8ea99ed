#!/usr/bin/env bash
# Offline CI gate: build, lint, test, format, and smoke-test the CLI.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test --features proptest --test proptests"
# The randomized property suite: fusion on and off give identical
# bytes, the merge-key order holds, and the queue and stats invariants
# hold over generated inputs. Gated behind a feature so the default
# `cargo test` stays fast.
cargo test --release --offline --features proptest --test proptests

echo "==> cargo test perfbench (benchmark build + self-tests)"
# perfbench is a stand-alone package outside the workspace; building
# and testing it here keeps an API removal from silently breaking the
# benchmark.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> afactl list smoke"
listing="$(./target/release/afactl list)"
count="$(printf '%s\n' "$listing" | tail -n +2 | wc -l)"
if [ "$count" -lt 20 ]; then
    echo "afactl list: expected at least 20 experiments, got $count" >&2
    exit 1
fi
echo "afactl list: $count experiments registered"

echo "==> golden artifact byte-compare (scaled fig06-fig13 + request-serving, fig06 at 64 SSDs)"
# Doubles as the experiment smoke test: regenerates the figure
# artifacts (plus the frontend request-serving experiments) at a
# reduced scale and byte-compares them against the committed fixtures.
# Any change in event ordering, RNG streams, model behaviour or JSON
# schema shows up here as a diff.
golden_tmp="$(mktemp -d)"
trap 'rm -rf "$golden_tmp"' EXIT
# check_golden <fixture> <experiment> <ssds> <seconds> [seed, default 42]
check_golden() {
    local fixture="$1" exp="$2" ssds="$3" seconds="$4" seed="${5:-42}"
    ./target/release/afactl exp "$exp" --seconds "$seconds" --ssds "$ssds" --seed "$seed" \
        --json > "$golden_tmp/$fixture.json"
    if ! cmp -s "tests/golden/$fixture.json" "$golden_tmp/$fixture.json"; then
        echo "golden mismatch: $fixture artifact differs from tests/golden/$fixture.json" >&2
        echo "(if the change is intentional, regenerate the fixture with:" >&2
        echo "  ./target/release/afactl exp $exp --seconds $seconds --ssds $ssds --seed $seed --json > tests/golden/$fixture.json)" >&2
        exit 1
    fi
    # A healthy model never schedules into the past; the manifest
    # serializes the clamp counter precisely so CI can refuse drift.
    if ! grep -q '"clamped_past_schedules":0' "$golden_tmp/$fixture.json"; then
        echo "clamped past-time schedules in $fixture run:" >&2
        grep -o '"clamped_past_schedules":[0-9]*' "$golden_tmp/$fixture.json" >&2
        exit 1
    fi
    echo "golden OK: $fixture"
}
for fig in fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 tailscale-fanout tailscale-hedge fleet-arrival fleet-failover ull-crossover; do
    check_golden "$fig" "$fig" 8 0.25
done
# At 8 SSDs no worker LP hosts two jobs; at 64 each hosts eight, so
# same-instant device completions on one LP only occur here. The
# seed-2 run hits the case where two of them must pop in the order
# their command hops would have landed, not in the hub's submit order
# (DESIGN.md §6.1).
check_golden fig06-64 fig06 64 0.05
check_golden fig06-64-s2 fig06 64 0.3 2

echo "==> fusion on/off byte-compare (fig06 + ull-crossover)"
# The macro-event fusion fast path must be invisible in the artifacts:
# AFA_NO_FUSION=1 forces every chain down the per-stage path, and the
# JSON must not move by a byte. fig06 covers the interrupt chain,
# ull-crossover covers the polled and hybrid reap chains.
for exp in fig06 ull-crossover; do
    AFA_NO_FUSION=1 ./target/release/afactl exp "$exp" --seconds 0.25 --ssds 8 --seed 42 \
        --json > "$golden_tmp/$exp-nofusion.json"
    if ! cmp -s "tests/golden/$exp.json" "$golden_tmp/$exp-nofusion.json"; then
        echo "fusion mismatch: $exp under AFA_NO_FUSION=1 differs from the golden" >&2
        exit 1
    fi
    echo "fusion OK: $exp (AFA_NO_FUSION=1 == golden)"
done

echo "CI OK"
