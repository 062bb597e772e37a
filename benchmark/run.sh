#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the repo root; no arguments = every workload, both passes.
cd "$(dirname "$0")/.." && exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
