#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments, e.g. from the repository root:
#
#   bash mmbench/run.sh --workload cli-flat7k --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files and span dumps.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build_dir="$root/.bench_build"
mkdir -p "$build_dir/gocache" "$build_dir/gopath" "$build_dir/tmp" "$build_dir/home"

export HOME="$build_dir/home"
export XDG_CONFIG_HOME="$build_dir/home/.config"
export XDG_CACHE_HOME="$build_dir/home/.cache"
export GOCACHE="$build_dir/gocache"
export GOPATH="$build_dir/gopath"
export GOMODCACHE="$build_dir/gopath/pkg/mod"
export TMPDIR="$build_dir/tmp"
export GOTMPDIR="$build_dir/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTELEMETRY=off
export CGO_ENABLED=0

go -C "$bench_dir" build -buildvcs=false -trimpath -o "$build_dir/mmbench" .
exec "$build_dir/mmbench" -out "$build_dir" "$@"
