#!/usr/bin/env bash
# Builds the admission benchmark from the checkout it sits in and runs it
# with the given arguments, from the checkout's root. Build outputs and
# the Go build cache stay under the checkout's .bench_build directory.
#
#   bash admbench/run.sh --workload admit-2048p --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
build="$(cd "$build" && pwd)"
# Everything the go command writes stays in the build directory, its
# telemetry counters (kept under the user config directory) included.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd admbench && go build -o "$build/admbench" .)
exec "$build/admbench" "$@"
