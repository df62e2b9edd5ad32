#!/usr/bin/env bash
# The repo benchmark in one command:
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--aa]
#   benchmark/run.sh --regen-golden > benchmark/golden.json
#
# Builds the benchmark package offline, then runs the six workloads in their
# fixed order, each in a fresh process: every metric is printed as
# `workload metric value unit`, and benchmark/runs/<stamp>/ receives
# summary.json and spans.jsonl. `--aa` runs the set twice on the same build
# and fails if two runs of the same code disagree beyond BENCHMARK.json's
# bounds. The binary itself drops every DITTO_* variable it inherits and
# sets the ones a workload needs.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/ditto-benchmark"
if [ "${1:-}" = "--regen-golden" ]; then
    exec "$bin" regen-golden
fi
exec "$bin" suite "$@"
