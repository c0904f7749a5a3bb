#!/usr/bin/env bash
# Builds mb-lab and mbbench (release, offline) and runs mbbench with the
# given arguments from the repository root, for example:
#
#   bash mbbench/run.sh run --seed 1 --out set1.json
#   bash mbbench/run.sh compare set1.json set2.json
#   bash mbbench/run.sh --workload tune-fig7 --seed 3 --seconds 15 --trace 0
#
# Build output goes to stderr, so mbbench's result stays the last line
# of stdout. Both builds share one target directory, CARGO_TARGET_DIR
# (default `target` at the repository root), which also holds the
# benchmark's scratch files: mbbench has a workspace of its own, and
# would otherwise build into `mbbench/target`.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p mb-lab >&2
cargo build --release --offline --quiet --manifest-path mbbench/Cargo.toml >&2
MB_LAB_BIN="$CARGO_TARGET_DIR/release/mb-lab" exec "$CARGO_TARGET_DIR/release/mbbench" "$@"
