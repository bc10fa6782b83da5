#!/bin/bash
# The command of BENCHMARK.json: builds the benchmark (a module of its own,
# benchmark/go.mod, that replaces the program's module with the checkout's
# source) and runs it from the repository root. The Go build cache, module
# cache, temporary files and the executable live in .bench_build/ (ignored by
# git), so a run reads and writes nothing outside the checkout and never
# touches the network. Arguments are passed through.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
