#!/usr/bin/env bash
# bench.sh runs the perf-trajectory benchmark suite and writes the results
# as JSON so successive PRs can track the hot paths: whole-run balancing
# cost, direct against jump on each cell (BenchmarkBalanceToPerfection,
# whose jump arms append ",jump" to the cell name), the direct-vs-jump end-game
# comparisons — plain (BenchmarkEndGame), strict tie rule
# (BenchmarkStrictEndGame), ring/torus/hypercube/expander topologies
# (BenchmarkGraphEndGame), and the dense-degree graph comparison direct
# vs jump-exact (BenchmarkGraphDense, gated ≥ 5x by check_graphdense.sh),
# the graph index's micro tier at Δ = 4, 8, 16 (BenchmarkGraphIndexUpdate,
# BenchmarkGraphIndexSample) — live churn (BenchmarkSessionChurn, n = 1024
# and m = 10⁵ with RunFor(0.0001) per op; on a torus jump session,
# BenchmarkGraphSessionChurn with RunFor(0.001) per op; each op is one
# arrival and one random departure, 4096 ops per iteration), the
# direct-vs-sharded dense regime (BenchmarkShardedDense), and the parallel
# epoch loop's
# allocation profile (BenchmarkShardedEpochSteadyState). Unless SCALING=0,
# the rlsweep -scaling study's speedup-vs-P cells are appended to the same
# file, and unless SERVICELOAD=0 so are the rlsweep -serviceload study's
# ServiceLoad* cells (event→apply p50/p99 and applied throughput of the
# multi-tenant rlsd service). The persistence layer rides along as
# BenchmarkSnapshot/BenchmarkRestore/BenchmarkTraceAppend — ns/op plus
# artifact compactness in bytes/ball and bytes/record (the trace cell
# appends 4096 records per iteration). The churn and trace cells report
# ns/op per op or record, not per iteration. The micro tier
# times the layers under the engines: the draw kernel — one ziggurat
# Exp and normal draw (BenchmarkExp, BenchmarkNormFloat64), one Geometric
# over p from 0.9 down to 1e-6 (BenchmarkGeometric) and one Erlang at
# shapes 1, 4, 16 and 64 (BenchmarkErlang/k=*) — 512 uniform draws,
# batched vs scalar (BenchmarkFillIntn), one configuration move — loads,
# histogram and min/max, the state every run reads (BenchmarkConfigMove),
# one direct-engine step
# (BenchmarkEngineStepBallList), the jump level index's chain step,
# SampleMovePair + Move, ball draw, and one AddBall or RemoveBall under
# its plain and strict tie rules (BenchmarkLevelIndexMove,
# BenchmarkLevelIndexSampleBall, BenchmarkLevelIndexChurn), and the 16-ary
# prefix-sum tree under both indices — one point update and one descent
# at n = 64, 4096 and 65536 (BenchmarkTree/{add,find}/n=*); all but
# BenchmarkFillIntn time a batch
# of 4096 ops per iteration and report ns per op (ns/draw for the draw
# kernel), so the default 3x
# still averages thousands of them. Shard ratios need as
# many hardware threads as shards — the JSON header records the core
# count and GOMAXPROCS.
#
# The default output name is derived from the tracked files: highest
# existing BENCH_PR<k>.json plus one, so recording a new PR's numbers is
# just `make bench` with no per-PR script edit.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=5x scripts/bench.sh            # override go test -benchtime
#   SCALING=0 scripts/bench.sh               # skip the scaling study
#   SCALINGN=2048 SCALINGREPS=1 scripts/bench.sh   # shrink it (CI smoke)
#   SERVICELOAD=0 scripts/bench.sh           # skip the service load study
#   SLSESSIONS=16 SLDURATION=0.5 scripts/bench.sh  # shrink it (CI smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

# Highest tracked PR number, compared numerically — `ls | sort | tail`
# would order BENCH_PR10.json before BENCH_PR2.json.
max_pr=0
for f in BENCH_PR*.json; do
  [ -e "$f" ] || continue
  n=${f#BENCH_PR}
  n=${n%.json}
  case $n in *[!0-9]* | '') continue ;; esac
  if [ "$n" -gt "$max_pr" ]; then max_pr=$n; fi
done
out=${1:-BENCH_PR$((max_pr + 1)).json}
benchtime=${BENCHTIME:-3x}
gomaxprocs=${GOMAXPROCS:-$(nproc)}
pattern='^(BenchmarkBalanceToPerfection|BenchmarkEndGame|BenchmarkStrictEndGame|BenchmarkGraphEndGame|BenchmarkGraphDense|BenchmarkGraphIndexUpdate|BenchmarkGraphIndexSample|BenchmarkSessionChurn|BenchmarkGraphSessionChurn|BenchmarkShardedDense|BenchmarkShardedEpochSteadyState|BenchmarkSnapshot|BenchmarkRestore|BenchmarkTraceAppend|BenchmarkExp|BenchmarkNormFloat64|BenchmarkGeometric|BenchmarkErlang|BenchmarkFillIntn|BenchmarkConfigMove|BenchmarkEngineStepBallList|BenchmarkLevelIndexMove|BenchmarkLevelIndexSampleBall|BenchmarkLevelIndexChurn|BenchmarkTree)$'

raw=$(mktemp)
scaling_json=$(mktemp)
service_json=$(mktemp)
trap 'rm -f "$raw" "$scaling_json" "$service_json"' EXIT
# Fail fast and loud: a nonzero `go test -bench` (build error, panic,
# b.Fatal) must fail this script before any JSON is written, or CI would
# cat a truncated file as success.
if ! go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -timeout 30m ./... | tee "$raw"; then
  echo "bench.sh: go test -bench exited nonzero; not writing $out" >&2
  exit 1
fi
if ! grep -q '^Benchmark' "$raw"; then
  echo "bench.sh: no benchmark lines in output; not writing $out" >&2
  exit 1
fi

# The scaling study's cells ride in the same file (names Scaling*). The
# default sweep caps at P=4 so the recorded names stay identical across
# dev boxes and CI runners regardless of their core counts.
: > "$scaling_json"
if [ "${SCALING:-1}" != 0 ]; then
  go run ./cmd/rlsweep -scaling \
    ${SCALINGN:+-scalingn "$SCALINGN"} \
    ${SCALINGREPS:+-scalingreps "$SCALINGREPS"} \
    -scalingmaxp "${SCALINGMAXP:-4}" \
    -scalingjson "$scaling_json"
fi

# The service load study's cells ride along too (names ServiceLoad*); the
# default size is a smoke-scale run — CI's service job records the full
# 1000x50 study separately and gates it with check_service.sh.
: > "$service_json"
if [ "${SERVICELOAD:-1}" != 0 ]; then
  go run ./cmd/rlsweep -serviceload \
    ${SLSESSIONS:+-slsessions "$SLSESSIONS"} \
    ${SLRATE:+-slrate "$SLRATE"} \
    ${SLDURATION:+-slduration "$SLDURATION"} \
    ${SLBINS:+-slbins "$SLBINS"} \
    -sljson "$service_json"
fi

awk -v benchtime="$benchtime" -v cores="$(nproc)" -v gomaxprocs="$gomaxprocs" \
  -v scaling="$scaling_json" -v serviceload="$service_json" '
BEGIN {
  print "["
  printf "  {\"suite\": \"rls-perf\", \"benchtime\": \"%s\", \"cores\": %s, \"gomaxprocs\": %s}", benchtime, cores, gomaxprocs
}
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  printf ",\n  {\"name\": \"%s\", \"iters\": %s", name, $2
  for (i = 3; i + 1 <= NF; i += 2) {
    unit = $(i + 1)
    gsub(/\//, "_per_", unit)
    gsub(/[^A-Za-z0-9_]/, "_", unit)
    printf ", \"%s\": %s", unit, $i
  }
  printf "}"
}
END {
  while ((getline line < scaling) > 0) {
    if (line ~ /"name"/) {
      sub(/,[ \t]*$/, "", line)
      sub(/^[ \t]+/, "", line)
      printf ",\n  %s", line
    }
  }
  while ((getline line < serviceload) > 0) {
    if (line ~ /"name"/) {
      sub(/,[ \t]*$/, "", line)
      sub(/^[ \t]+/, "", line)
      printf ",\n  %s", line
    }
  }
  print "\n]"
}
' "$raw" > "$out"

echo "wrote $out"
