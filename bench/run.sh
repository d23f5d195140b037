#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes — binary, Go build cache, toolchain state —
# stays under .bench_build/ inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
(
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
	export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
	go build -C "$root/bench" -o "$build/hwbench" .
)
cd "$root"
exec "$build/hwbench" "$@"
