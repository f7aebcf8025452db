#!/usr/bin/env bash
# The one command of the repo benchmark (see README.md next to this file).
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--calibrate]
#       build, run every workload in a fresh child process, check the
#       outputs, print every metric by name with its unit
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       measure one workload; the last line of stdout is one JSON object
#
# Build output goes to stderr so that stdout carries results only.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --locked \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
# One malloc arena: with glibc's per-thread arenas the campaign's peak RSS
# moves between 12 and 17 MB from run to run with the thread timing.
export MALLOC_ARENA_MAX=1
command=suite
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then command=run; fi
done
exec "$target/release/antmoc-benchmark" "$command" --out "$target/benchmark" "$@"
