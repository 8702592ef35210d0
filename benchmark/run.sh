#!/usr/bin/env bash
# The repo benchmark's one command. Builds the standalone benchmark crate,
# then hands every argument to it:
#
#   benchmark/run.sh [--seed S]                  every workload: measured + traced run,
#                                                every metric printed, outputs checked,
#                                                benchmark/out/result.json written
#   benchmark/run.sh --selftest [--seed S]       the full set twice, compared against the
#                                                bounds, written to benchmark/baseline/
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                one run (the form BENCHMARK.json's driver uses)
#
# Run it from the repository root or anywhere else; it only reads and writes
# inside the checkout.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export AEOLUS_BENCHMARK_DIR="$dir"

# CARGO_TARGET_DIR may be relative to the caller's directory; cargo and the
# binary path below must agree on it.
target="${CARGO_TARGET_DIR:-$dir/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

# Cargo's progress goes to stderr; stdout belongs to the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" >&2

exec "$target/release/aeolus-benchmark" "$@"
