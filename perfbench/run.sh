#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload tcp-mesh --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the go command's own state stay
# inside the checkout, under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans-dir "$out/spans" "$@"
