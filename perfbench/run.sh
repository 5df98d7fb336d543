#!/usr/bin/env bash
# run.sh — build and run the repository benchmark from a source checkout.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark, its load driver and the graphpiped and
# graphpipe-lb daemons from the surrounding tree into .bench_build/, keeping
# the Go build cache there too, then runs the benchmark with the given
# arguments. The last line of standard output is the result object.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd" ]]; then
  echo "perfbench: run from the root of a graphpipe source tree (no go.mod, internal/ or cmd/ in $root)" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/" ./cmd/graphpiped ./cmd/graphpipe-lb >&2
(cd "$root/perfbench" && go build -o "$build/bin/" . ./loaddriver) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -build-dir "$build" "$@"
