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

echo "== one engine-selection path =="
# Only synchro_tokens::run_configs (campaign.rs) builds batches; every
# other library caller goes through it rather than re-copying the
# batched -> scalar fallback ladder.
ladders=$(grep -rlF 'BatchedSystem::build' crates/*/src \
    | grep -vx -e 'crates/core/src/batched_system.rs' -e 'crates/core/src/campaign.rs' || true)
if [[ -n "$ladders" ]]; then
    echo "BatchedSystem::build outside run_configs (use synchro_tokens::run_configs):" >&2
    echo "$ladders" >&2
    exit 1
fi

echo "== one compiled engine source =="
# The compiled engine (engine.rs) is the only typed-event engine in the
# core crate; CompiledSystem and BatchedSystem are its two
# instantiations, not two copies. Its pending events live in one
# time-ordered queue: no BinaryHeap beside it, and one insertion
# function (`sched`).
heaps=$(grep -rlF 'BinaryHeap' crates/core/src || true)
if [[ -n "$heaps" ]]; then
    echo "BinaryHeap in the core crate (schedule through engine.rs's queue):" >&2
    echo "$heaps" >&2
    exit 1
fi
queues=$(grep -rlE '\bfn sched\b' crates/core/src || true)
if [[ $(grep -c . <<<"$queues") -gt 1 ]]; then
    echo "pending-queue insertion defined in more than one file (extend engine.rs instead):" >&2
    echo "$queues" >&2
    exit 1
fi

echo "== one canonical codec =="
# canon.rs holds the core crate's only byte writer and reader (Enc, Dec)
# and the Canon trait; each checkpoint record's wire layout is its
# canon_record! field list. No hand-mirrored payload encoder/decoder
# pair and no second private byte reader may come back.
mirrored=$(grep -rnE '\bfn (encode|decode)_\w*payload' crates/core/src || true)
if [[ -n "$mirrored" ]]; then
    echo "hand-written payload codec (list the record's fields with canon_record! instead):" >&2
    echo "$mirrored" >&2
    exit 1
fi
codecs=$(grep -rnE '\b(struct (Reader|Enc|Dec)|trait Canon)\b' crates/core/src || true)
if [[ -n "$(grep -v '^crates/core/src/canon\.rs:' <<<"$codecs")" || $(grep -c 'struct Dec\b' <<<"$codecs") -ne 1 ]]; then
    echo "byte codec defined outside canon.rs, or defined twice (read and write through canon::{Enc, Dec}):" >&2
    echo "$codecs" >&2
    exit 1
fi

echo "== one trace store per lane group =="
# A lockstep group stores its lanes' traces in one LaneTraces per SB
# (iotrace.rs): no column of whole per-lane SbIoTraces may come back.
# Lowering hashes no configuration: in engine.rs only lane_hash (on
# first read) and resume_decoded (checking the builder) call
# config_hash.
percol=$(grep -rnF 'Col<SbIoTrace>' crates/core/src || true)
if [[ -n "$percol" ]]; then
    echo "per-lane SbIoTrace column (record into the group's LaneTraces instead):" >&2
    echo "$percol" >&2
    exit 1
fi
eager=$(awk '/(^|[^A-Za-z0-9_])fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
    /config_hash\(/ && f != "lane_hash" && f != "resume_decoded" { print FILENAME ":" FNR ": in " f ": " $0 }' \
    crates/core/src/engine.rs)
if [[ -n "$eager" ]]; then
    echo "config_hash outside lane_hash/resume_decoded (hash lazily through lane_hash):" >&2
    echo "$eager" >&2
    exit 1
fi

echo "== traces hash on read =="
# Recording a trace row hashes nothing: SbIoTrace::digest folds the
# rows when it is read, and LaneTraces folds every lane in one pass on
# its first digest read. No struct under crates/core/src may hold a
# DigestHasher or a collection of them, and the per-row lane fold
# (fn fold_row) may not come back.
held=$(find crates/core/src -name '*.rs' -exec awk '
    FNR == 1 { body = 0 }
    /^[[:space:]]*\/\// { next }
    /(^|[^A-Za-z0-9_])struct[[:space:]]+[A-Za-z0-9_]+/ {
        rest = $0
        sub(/^.*struct[[:space:]]+[A-Za-z0-9_]+/, "", rest)
        if (rest ~ /DigestHasher/) print FILENAME ":" FNR ": " $0
        body = (rest ~ /\{[[:space:]]*$/)
        next
    }
    body && /^[[:space:]]*\}/ { body = 0 }
    body && /DigestHasher/ { print FILENAME ":" FNR ": " $0 }' {} + || true)
folds=$(grep -rnE '\bfn fold_row\b' crates/core/src || true)
if [[ -n "$held$folds" ]]; then
    echo "trace digest state kept on the record path (fold on read in SbIoTrace::digest / LaneTraces::fold):" >&2
    printf '%s\n' "$held" "$folds" | sed '/^$/d' >&2
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

echo "== repository benchmark correctness smoke =="
# One short run per workload. perfbench gates every operation (seu_scan,
# for one, checks that forked and collapsed sweeps classify exactly as
# straight ones); its last line must report correct with 0 failed.
for w in serve_mix shmoo_grid seu_scan e1_sweep; do
    last=$(CARGO_TARGET_DIR=target/perfbench python3 perfbench/run.py \
        --workload "$w" --seed 1 --seconds 1 | tail -n 1)
    if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] is True and r["failed"] == 0))' "$last"; then
        echo "perfbench $w failed its correctness gate: $last" >&2
        exit 1
    fi
done

echo "== E1 determinism smoke (reduced budget) =="
cargo run --release -p st-bench --bin repro_determinism -- 60 20

echo "CI OK"
