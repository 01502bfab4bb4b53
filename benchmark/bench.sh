#!/usr/bin/env bash
# The command BENCHMARK.json names: build mpcbench from source and run it
# with the arguments given. Everything the build leaves behind — the
# binary, Go's build cache, its temporary files — stays in .bench_build/
# inside the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -C benchmark -o "$build/mpcbench" .
exec "$build/mpcbench" "$@"
