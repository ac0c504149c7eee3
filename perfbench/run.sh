#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload region-wave --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/go-config"

export GOCACHE=$build/go-cache
export GOTMPDIR=$build/go-tmp
export GOPATH=$build/go-path
export XDG_CONFIG_HOME=$build/go-config
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
