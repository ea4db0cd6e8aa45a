#!/usr/bin/env bash
# check_graphdense.sh asserts the jump engine's dense-graph floors on a
# bench JSON file (bench.sh output): on the dense random-regular end-game
# (BenchmarkGraphDense), both graph samplers must be at least <min-ratio>
# times faster than the direct engine by ns/op — the exact index
# (jump-exact, the default at every degree) and the rejection-within-
# blocks hybrid (jump-hybrid, reachable by an explicit sampler choice).
# If a floor breaks, that sampler has stopped paying for its bookkeeping
# and dense graph runs would be better off on the per-activation path.
#
# Usage: scripts/check_graphdense.sh <file.json> [min-ratio]
#   e.g. scripts/check_graphdense.sh /tmp/bench-smoke.json 5.0
set -euo pipefail
cd "$(dirname "$0")/.."

file=${1:?usage: check_graphdense.sh <file.json> [min-ratio]}
min=${2:-5.0}

ns_of() {
  grep -o "\"name\": *\"$1\"[^}]*" "$file" |
    sed -n 's/.*"ns_per_op": *\([0-9.eE+-]*\).*/\1/p' | head -n 1
}

direct=$(ns_of 'BenchmarkGraphDense/random-16-regular/direct')
if [ -z "$direct" ]; then
  echo "check_graphdense.sh: missing BenchmarkGraphDense direct entry in $file" >&2
  exit 1
fi
status=0
for arm in jump-exact jump-hybrid; do
  ns=$(ns_of "BenchmarkGraphDense/random-16-regular/${arm}")
  if [ -z "$ns" ]; then
    echo "check_graphdense.sh: missing BenchmarkGraphDense ${arm} entry in $file" >&2
    exit 1
  fi
  ratio=$(awk -v d="$direct" -v h="$ns" 'BEGIN { printf "%.2f", d / h }')
  if awk -v d="$direct" -v h="$ns" -v m="$min" 'BEGIN { exit !(d / h >= m + 0) }'; then
    echo "dense graph end-game: ${arm} is ${ratio}x faster than direct (>= ${min}x)"
  else
    echo "check_graphdense.sh: ${arm}/direct speedup ${ratio}x < required ${min}x in $file" >&2
    status=1
  fi
done
exit "$status"
