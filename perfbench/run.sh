#!/usr/bin/env bash
# Builds the repository's commands and the benchmark driver from source,
# then runs the driver with this script's arguments. Run it from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare runs-a runs-b
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary build files, binaries and the
# scratch files of each run.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/simulate" ]; then
  echo "perfbench: run from the root of a repository checkout (no go.mod or cmd/simulate here)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/simulate ./cmd/fabricd ./cmd/resultd ./cmd/psq
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" "$@"
