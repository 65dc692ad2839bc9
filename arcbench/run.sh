#!/usr/bin/env bash
# BENCHMARK.json's command: build arcbench from source inside the checkout
# and run it with the driver's arguments. Everything go writes — build
# cache, temporary files, the binary — stays under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/arcbench" ./arcbench
exec "$build/arcbench" "$@"
