#!/usr/bin/env bash
# Local CI: everything a reviewer runs before trusting a change.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== live benchmark builds and passes its tests =="
cargo test -q --release --manifest-path livebench/Cargo.toml

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== observability smoke (example + self-checker) =="
cargo run --release --example observe

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== observability overhead bench =="
cargo bench -p rolljoin-bench --bench obs_overhead

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
