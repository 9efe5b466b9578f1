#!/bin/sh
# Repository CI gate: formatting, lints, and the full test suite.
#
#   ./ci.sh          # run everything
#
# Mirrors what a hosted pipeline would run; keep it green before every
# commit. Builds are fully offline (all third-party dependencies are
# vendored as shims under shims/ — see shims/README.md).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc -D warnings: no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> operon-lint --workspace (v2: call graph + R003/N001/P002, zero deny)"
cargo run -p operon-lint --release -q -- --workspace

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> crossing_bench --smoke (crossing build identity gate: grid over distinct segments per net == brute at threads 1/2/8, delta == full)"
cargo run -p operon-bench --release -q --bin crossing_bench -- --smoke

echo "==> wdm_bench --smoke (warm max-flow trial identity gate, multi-component die fixture: plan == cold reference at threads 1/2/8, reuse arm: WdmPlan::fingerprint warm == scratch at threads 1/2/8, plan fingerprints pinned in BENCH_wdm.json)"
cargo run -p operon-bench --release -q --bin wdm_bench -- --smoke

echo "==> exec_bench --smoke (map break-even gate: select_lr and wdm::plan identical at threads 1/2/8 on both sides of each break-even; 2 workers run the serve-sized LR selection at >= 0.95x one worker on >= 2 CPUs)"
cargo run -p operon-bench --release -q --bin exec_bench -- --smoke

echo "==> serve_bench --smoke (warm-session identity gate)"
cargo run -p operon-bench --release -q --bin serve_bench -- --smoke

echo "==> lint_bench --smoke (scan-cache identity gate)"
cargo run -p operon-bench --release -q --bin lint_bench -- --smoke

echo "==> ilp_bench --smoke (exact-selection search pin: nodes, LP solves, simplex iterations and power bits equal BENCH_ilp.json)"
cargo run -p operon-bench --release -q --bin ilp_bench -- --smoke

echo "==> shard_bench --smoke (die-scale plan fingerprint + thread identity gate)"
cargo run -p operon-bench --release -q --bin shard_bench -- --smoke

echo "==> explore_bench --smoke (warm-sweep identity gate)"
cargo run -p operon-bench --release -q --bin explore_bench -- --smoke

echo "==> operon_benchmark --smoke (end-to-end benchmark: plan checks on every workload)"
cargo run --release --offline -q --manifest-path crates/bench/src/bin/operon_benchmark/Cargo.toml -- --smoke

echo "CI green."
