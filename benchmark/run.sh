#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it. Every
# build artefact (binary, Go build cache and temporary files, Go config)
# stays under .bench_build/ at the repository root, and paths given to
# the benchmark are relative to the repository root.
#
#   bash benchmark/run.sh --workload hess-n1024 --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh --workload all --seed 1 --out benchmark/out/run1
#   bash benchmark/run.sh --compare benchmark/baseline/set1 benchmark/baseline/set2
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-path/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

cd "$root/benchmark"
go build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
