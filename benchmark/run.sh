#!/usr/bin/env bash
# Builds the benchmark from source and runs it once. This is the command
# of BENCHMARK.json; the driver appends
#   --workload NAME --seed N --seconds S --trace 0|1
# and reads the last line of standard output. Run from the root of a
# checkout: everything built or written lands in .bench_build there,
# the Go build cache included, so nothing outside the checkout is touched.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build=$PWD/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -src "$here" "$@"
