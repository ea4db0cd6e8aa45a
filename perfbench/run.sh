#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-complete --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs (binary, Go build cache)
# stay under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="${out}/config"
go -C "${root}/perfbench" build -o "${out}/perfbench" .
exec "${out}/perfbench" "$@"
