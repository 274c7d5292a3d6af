#!/usr/bin/env bash
# Builds skybench (release, offline) and runs it from the repository root.
#
#   benchmark/run.sh [--seed N]
#       the full run: every workload 3 times untraced (interleaved) and once
#       traced; prints every metric and writes benchmark/out/results-seedN.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object (BENCHMARK.json's command)
#   benchmark/run.sh compare A.json B.json
#       judge results B against results A by the benchmark's bounds
set -euo pipefail
cd "$(dirname "$0")/.."

# The benchmark is a workspace of its own: the root build and the tier-1
# tests must never compile it.
metadata=$(cargo metadata --offline --no-deps --format-version 1)
case "$metadata" in
  *'"name":"skybench"'*)
    echo "run.sh: skybench is listed by the root workspace; it must stay outside" >&2
    exit 1
    ;;
esac

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
skybench="$CARGO_TARGET_DIR/release/skybench"

case "${1:-}" in
  compare | spec | all) exec "$skybench" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$skybench" "$@"
  fi
done
exec "$skybench" all "$@"
