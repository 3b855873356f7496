#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through (see README.md). Everything the Go toolchain writes
# (build cache, temp files, telemetry) stays in the build directory inside
# the checkout: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C benchmark build -buildvcs=false -o "$build/geacc-benchmark" .
exec "$build/geacc-benchmark" -build-dir "$build" "$@"
