#!/usr/bin/env bash
# Local CI: everything a reviewer runs before trusting a change.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== harness: each experiment's checks fail the run on a mismatch =="
# Experiments write their JSON under target/harness/; the run must leave
# every tracked file as it found it.
tracked_state() {
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git diff HEAD --binary | sha256sum
    fi
}
before=$(tracked_state)
./target/release/harness e3 e4 e5 e6 e10 e12 e14 e15 e16 e18 e20
if [ "$(tracked_state)" != "$before" ]; then
    echo "the harness step changed tracked files:" >&2
    git status --short --untracked-files=no >&2
    exit 1
fi

echo "== live benchmark builds and passes its tests =="
cargo test -q --release --manifest-path livebench/Cargo.toml
cargo build -q --release --manifest-path livebench/Cargo.toml

echo "== live benchmark: short seeded runs per workload end oracle-correct =="
# --trace 0 is the end-to-end run; --trace 1 adds the traced drivers that
# report the per-layer metrics (and runs an untraced child first).
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for trace in 0 1; do
        result=$(livebench/target/release/livebench \
            --workload "$workload" --seed 7 --seconds 3 --trace "$trace" | tail -n 1)
        echo "$workload (trace $trace): $result"
        if ! grep -q '"correct": true' <<<"$result"; then
            echo "livebench $workload (trace $trace): oracle check failed" >&2
            exit 1
        fi
        # The traced run's catch-up work counters repeat exactly per seed:
        # any drift from the committed golden fails.
        if [ "$trace" = 1 ]; then
            got=$(jq -S '.metrics | with_entries(select(.key | startswith("catchup.exact.")))
                | map_values(.value)' <<<"$result")
            want=$(jq -S --arg w "$workload" '.[$w]' ci/catchup_exact_seed7.json)
            if [ "$got" != "$want" ]; then
                echo "livebench $workload: catchup.exact.* drifted from ci/catchup_exact_seed7.json" >&2
                diff <(echo "$want") <(echo "$got") >&2 || true
                exit 1
            fi
        fi
    done
done

echo "== live benchmark: star_dim_churn (n = 4 compensation under dimension churn) ends oracle-correct =="
# Not a BENCHMARK.json workload: the only live run where ImmediateBox
# compensation meets dimension churn, and the one most exposed to
# table-lock contention.
result=$(livebench/target/release/livebench \
    --workload star_dim_churn --seed 7 --seconds 3 --trace 0 | tail -n 1)
echo "star_dim_churn (trace 0): $result"
if ! grep -q '"correct": true' <<<"$result"; then
    echo "livebench star_dim_churn: oracle check failed" >&2
    exit 1
fi

echo "== rustfmt =="
cargo fmt --all --check
cargo fmt --check --manifest-path livebench/Cargo.toml

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --release --manifest-path livebench/Cargo.toml --all-targets -- -D warnings

echo "== examples (each asserts on its results; observe self-checks its artifacts) =="
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "-- $name"
    cargo run -q --release --example "$name"
done

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== observability overhead bench =="
cargo bench -p rolljoin-bench --bench obs_overhead

echo "== live-shaped star forward query bench (keyed probes, join, view-delta write) =="
cargo bench -p rolljoin-bench --bench executor -- star_forward_keyed_256x3

echo "== live-shaped roll bench (100k view-delta rows installed into a 200k-tuple view) =="
cargo bench -p rolljoin-bench --bench refresh -- roll_to_100k_vd_rows

echo "== recovery bench (recover the log of a 400k-tuple two-way view, then reattach it) =="
cargo bench -p rolljoin-bench --bench recovery -- recover_and_reattach_400k_view

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
