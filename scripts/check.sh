#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> failure injection and cross-executor conformance suites"
cargo test -q --test failure_injection --test fault_resilience \
  --test fault_conformance --test trace_conformance

echo "==> durability suites: checkpoint corruption + kill-at-random-cycle resume"
echo "    (campaign_conformance covers sync AND pipelined commit modes,"
echo "     incl. torn in-flight async writes and cross-mode resumes)"
cargo test -q --test checkpoint_restart --test campaign_conformance
cargo test -q -p enkf-ckpt

echo "==> D-EnKF conformance: digest identity, degradation, kill-resume, SMW equivalence"
cargo test -q --test denkf_conformance --test cross_variant_equivalence

echo "==> chaos-soak smoke: multi-cycle fault storms under health monitoring,"
echo "    real-vs-DES digest identity + bit-exact replay, all four executors"
cargo test -q --test chaos_soak
cargo test -q -p enkf-health -p enkf-fault

echo "==> scheduler suites: fair-share properties + multi-tenant isolation"
cargo test -q -p enkf-sched
cargo test -q --test scheduler_conformance

echo "==> allocation regression: steady-state data plane and DES event loop (release)"
cargo test -q --release --test dataplane_alloc_free
cargo test -q --release -p enkf-sim --test alloc_free

echo "==> kernel conformance matrix: default / fast-math / no-SIMD features"
cargo test -q -p enkf-linalg
cargo test -q -p enkf-linalg --features fast-math
cargo test -q -p enkf-linalg --no-default-features

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

echo "==> repository benchmark builds against the library API"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
