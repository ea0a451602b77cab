#!/usr/bin/env bash
# Builds the benchmark and tdbserve from source, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Build outputs, the Go build cache
# and run scratch files go to $CARGO_TARGET_DIR (default .bench_build) under
# the current directory, so a run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/tdbserve" tdb/cmd/tdbserve
) >&2

exec "$out/perfbench" -out "$out" -tdbserve "$out/tdbserve" "$@"
