#!/usr/bin/env bash
# Builds the measured program (`dlb`, plus `trace_analyze` for the trace
# check) and the benchmark harness from source, then runs the harness
# from the repo root.  All arguments go to the harness:
#
#   benchmark/run.sh [--workload NAME]... [--seed S] [--seconds T | --reps R]
#                    [--trace 0|1] [--smoke] [--out FILE]
#   benchmark/run.sh --compare A.json B.json
#
# Everything builds offline into one target directory (the driver's
# CARGO_TARGET_DIR, else ./target), so the harness finds `dlb` beside
# itself.  Build output goes to stderr; stdout is the harness's alone.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# --manifest-path keeps cargo from adopting a Cargo.toml further up when
# this checkout has none: then the build must fail, not build elsewhere.
cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p dlb-cli -p dlb-experiments --bin dlb --bin trace_analyze >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dlb-benchmark" "$@"
