#!/usr/bin/env bash
# Builds the benchmark with a build cache inside the checkout and runs it,
# so that a run reads and writes nothing outside the directory it was
# started in. Arguments are passed through:
#
#   bash bench/run.sh --workload svc-singles --seed 42 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
