#!/usr/bin/env bash
# Builds the benchmark package offline, smoke-runs every workload in --quick
# mode (traced and untraced), and checks that every workload and metric name
# and unit printed is the one BENCHMARK.json declares and fits the name
# grammar. Takes about a minute and a half; the numbers it prints are not for
# comparison.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- check
