#!/usr/bin/env bash
# Engine benchmark harness: runs the hot-path benchmarks and APPENDS one
# dated entry to BENCH_engine.json via cmd/benchlog, so the perf trajectory
# across PRs is preserved. The benchmarks are two-class and multi-class
# stepping; the occupancy scaling of the engine against the test-only
# rebuild reference at n in {10, 100, 1k, 10k} (the "incremental*" and
# "rebuild*" legs, names kept from when both were production engines); the
# end-to-end simulator throughput; the variate layer (xrand's Uint64 and
# Exp, one arrival of the two-class and the mix source); the series
# statistics (ESS, MSER-5, batch means) and the tail recorder's quantiles;
# and the internal/serve loopback serving path (cache-hit and coalesced
# req/sec).
# A legacy single-snapshot file is migrated into the history's first entry
# automatically.
#
# Each benchmark runs BENCH_COUNT times (default 3) and benchlog records the
# fastest sample, so the history entries — the baselines `benchlog -check`
# gates CI against — carry as little scheduler noise as possible. On a noisy
# shared box, raise BENCH_COUNT (e.g. BENCH_COUNT=7) for a tighter floor.
#
# Usage: scripts/bench.sh [benchtime]            (default 1s)
#        scripts/bench.sh profile [benchtime]    (profile mode)
#
# Profile mode appends nothing: it reruns the occupancy-scaling hot path
# (the engine's "incremental*" legs of BenchmarkEngineEventN10k — the
# constant being attacked; the rebuild-reference legs are O(n)/O(n^2) by
# design and would drown the profile) under the CPU, allocation and mutex profilers and
# drops flamegraph-ready BENCH_cpu.prof / BENCH_mem.prof / BENCH_mutex.prof
# (plus the test binary BENCH_bench.test for symbolizing) next to
# BENCH_engine.json. Inspect with e.g.
#   go tool pprof -http=: BENCH_bench.test BENCH_cpu.prof
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_COUNT="${BENCH_COUNT:-3}"
OUT="BENCH_engine.json"

if [ "${1:-}" = "profile" ]; then
  BENCHTIME="${2:-1s}"
  echo "==> profiling BenchmarkEngineEventN10k/incremental* (-benchtime $BENCHTIME)"
  go test ./internal/sim -run '^$' -bench 'BenchmarkEngineEventN10k/incremental' \
    -benchtime "$BENCHTIME" -o BENCH_bench.test \
    -cpuprofile BENCH_cpu.prof -memprofile BENCH_mem.prof -mutexprofile BENCH_mutex.prof
  # Smoke: the profiles must load and be non-trivial, or the wiring rotted.
  go tool pprof -top -nodecount=5 BENCH_bench.test BENCH_cpu.prof
  for p in BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof; do
    [ -s "$p" ] || { echo "FAIL: $p missing or empty" >&2; exit 1; }
  done
  echo "profiles written: BENCH_cpu.prof BENCH_mem.prof BENCH_mutex.prof (binary: BENCH_bench.test)"
  exit 0
fi

BENCHTIME="${1:-1s}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "==> go test -bench Engine/Throughput (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# -timeout 0 everywhere: the runs are bounded by benchtime x count, and a
# raised BENCH_COUNT must not trip go test's default 10m package timeout.
go test ./internal/sim -run '^$' -bench 'BenchmarkEngineEvent' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"
go test . -run '^$' -bench 'BenchmarkSimulatorThroughput' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"

echo "==> go test -bench variate layer (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# Per-variate cost: the raw PCG draw, the ziggurat exponential, and one
# arrival of the two-class and the four-class mix source.
go test ./internal/xrand -run '^$' -bench 'BenchmarkUint64|BenchmarkExp' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"
go test ./internal/workload -run '^$' -bench 'BenchmarkPoissonSourceNext|BenchmarkMixSourceNext' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"

echo "==> go test -bench series statistics and tail recorder (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# Per-replication cost of a series-CI sweep: the effective sample size of a
# slowly decorrelating 10k series, MSER-5 trimming and batch means, and
# the recorder's tail quantiles over 10k completions.
go test ./internal/stats -run '^$' -bench 'BenchmarkEffectiveSampleSize|BenchmarkMSER5Trim|BenchmarkBatchMeans' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"
go test ./internal/sim -run '^$' -bench 'BenchmarkRecorderQuantiles' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"

echo "==> go test -bench BenchmarkServe (-benchtime $BENCHTIME, best of $BENCH_COUNT)"
# Loopback HTTP serving over real sockets; benchlog records the reported
# requests/sec metric as the requests_per_sec column and gates it in CI.
go test ./internal/serve -run '^$' -bench 'BenchmarkServe' -timeout 0 \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCH_COUNT" | tee -a "$RAW"

NOTE="$(git rev-parse --short HEAD 2>/dev/null || echo unversioned) benchtime=$BENCHTIME"
go run ./cmd/benchlog -file "$OUT" -date "$(date -u +%Y-%m-%d)" -note "$NOTE" < "$RAW"
