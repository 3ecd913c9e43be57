#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash servebench/run.sh --workload cold-mix --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build at the checkout root).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/go/tmp" "$build/go/home"
# Keep the Go toolchain's caches, telemetry and temporary files inside the
# build directory, and never let it fetch another toolchain.
(
	cd "$here"
	env HOME="$build/go/home" XDG_CONFIG_HOME="$build/go/home/.config" \
		XDG_CACHE_HOME="$build/go/home/.cache" GOCACHE="$build/go/cache" \
		GOPATH="$build/go/path" GOMODCACHE="$build/go/path/pkg/mod" \
		GOTMPDIR="$build/go/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		GOPROXY=off GOWORK=off \
		go build -o "$build/bin/servebench" .
)
exec "$build/bin/servebench" --dir "$build/servebench" "$@"
