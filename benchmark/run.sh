#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the toolchain
# writes (build cache, module cache, temporary files) goes under
# .bench_build/ too, so a run reads and writes only inside its checkout.
# Plain `go build`: no PGO profile, as cmd/tables and cmd/routesimd are built.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
