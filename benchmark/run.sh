#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash benchmark/run.sh --workload solve --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -seed 1 -out run.json        # all five workloads
#   bash benchmark/run.sh -compare parent.json change.json
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files all stay under .bench_build/ in that directory, so the first
# run in a fresh checkout compiles everything (standard library included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd "$root/benchmark" && go build -o "$out/spmvbench" .)
exec "$out/spmvbench" "$@"
