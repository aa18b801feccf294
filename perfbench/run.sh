#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload tables --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), so the checkout
# is the only place touched. Without the simulator's sources next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
