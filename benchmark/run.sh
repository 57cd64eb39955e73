#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it with the given
# arguments:
#
#   bash benchmark/run.sh --workload fleet-wide --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
export GOWORK=off

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C "$root/benchmark" build -ldflags "-X main.commit=$commit" \
  -o "$out/amuletbenchmark" . >&2
exec "$out/amuletbenchmark" "$@"
