#!/usr/bin/env bash
# Builds the spine benchmark from source and runs it with the given flags:
#
#   bash spinebench/run.sh --workload archive --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind stays under .bench_build there: the Go build cache, the binary and
# the benchmark's scratch traces and stores (removed when a run ends).
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go -C "$here" build -trimpath -buildvcs=false -o "$out/spinebench" .
exec "$out/spinebench" --repo "$root" --work "$out/spinebench-work" "$@"
