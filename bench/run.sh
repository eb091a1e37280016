#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload enum-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# (or $CARGO_TARGET_DIR when set): the Go build cache, the binary, temp
# files, JSON artifacts and traces. Outside a full checkout (no go.mod or
# internal/ next to bench/) the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the output directory too.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
(cd bench && go build -buildvcs=false -o "$out/bench" .)

commit=unknown
if [ -d .git ]; then
  commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec env GOMAXPROCS=2 GOGC=100 "$out/bench" -out "$out" -commit "$commit" "$@"
