#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from bench/spine, passing every argument through. The Go build
# cache lives in .bench_build/ too, so a run writes nothing outside the
# checkout; the first build there compiles the standard library and takes
# about a minute, later ones a fraction of a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/spine" . >&2
exec "$build/spine" "$@"
