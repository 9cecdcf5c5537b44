#!/usr/bin/env bash
# CI gate: lint, format, build, test, and a release smoke run of the E1
# determinism campaign with a reduced budget (60 synchro runs, 20 bypass
# runs — seconds, not the paper-scale 16,200).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no external crates =="
# Every package and dependency resolves inside the repository: an
# external crate has a non-null `source` (registry or git).
metadata=$(cargo metadata --offline --format-version 1)
external=$(grep -o '"source":"[^"]*"' <<<"$metadata" | sort -u || true)
if [[ -n "$external" ]]; then
    echo "external crates in the dependency graph:" >&2
    echo "$external" >&2
    exit 1
fi

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --all -- --check

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
# Witness manifests from this run land where the conformance lint looks
# for runtime corroboration (static declarations alone gate the lint).
export ST_WITNESS_DIR="$PWD/target/st-witness"
rm -rf "$ST_WITNESS_DIR"
cargo test --workspace -q

echo "== conformance witness lint =="
cargo run --release -q -p st-conformance --bin st-conformance-lint

echo "== compiled-backend differential proptests (fixed reduced budget) =="
PROPTEST_CASES=16 cargo test --release -p synchro-tokens --test compiled_equiv -q

echo "== batched-backend differential proptests (fixed reduced budget) =="
PROPTEST_CASES=16 cargo test --release -p synchro-tokens --test batched_equiv -q

echo "== checkpoint/resume equivalence proptests (fixed reduced budget) =="
PROPTEST_CASES=16 cargo test --release -p synchro-tokens --test checkpoint_equiv -q

echo "== verdict-run equivalence proptests (fixed reduced budget) =="
PROPTEST_CASES=16 cargo test --release -p synchro-tokens --test verdict_equiv -q

echo "== chaos smoke (fixed seeds, reduced budget) =="
# 48 of the full 501 (seed x fault-class) configs; seeds are fixed by
# the plan generator, so this is deterministic run to run.
ST_CHAOS_CONFIGS=48 PROPTEST_CASES=8 cargo test --release -p st-testkit --test chaos -q
PROPTEST_CASES=8 cargo test --release -p synchro-tokens --test faults -q

echo "== st-serve HTTP smoke (ephemeral port, tiny E1 campaign) =="
scripts/serve_smoke.sh

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== repository benchmark compiles =="
# perfbench/ is its own Cargo package linking the public crate APIs; a
# breaking API change fails here rather than in a benchmark run.
cargo build --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== E1 determinism smoke (reduced budget) =="
cargo run --release -p st-bench --bin repro_determinism -- 60 20

echo "CI OK"
