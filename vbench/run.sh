#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash vbench/run.sh --workload sim-fig7 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the go command's own files and the binary live under
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout. Without the repository's sources beside vbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd vbench && go build -o "$build/vbench" .)
exec "$build/vbench" "$@"
