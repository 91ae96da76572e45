#!/usr/bin/env bash
# The benchmark's single entry point: builds the harness from source with
# its own target directory and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--selftest-fault]
#
# Without --workload all four workloads run in turn. Per run, the last line
# on standard output is the result object ({correct, attempted, failed,
# metrics}); the line before it is the full report with every metric by name
# and unit, sample counts, set-up parts and calibration. With --trace 1 the
# spans go to benchmark/out/<workload>.trace.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
# Cargo's progress goes to standard error; standard output carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/legobase_benchmark" --out "$here/out" "$@"
