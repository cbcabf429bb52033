#!/usr/bin/env bash
# Builds the benchmark and the borg-serve binary from the checkout it is
# run in, then runs one workload:
#
#   bash perfbench/run.sh --workload stream-covar --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and output
# file lands under $CARGO_TARGET_DIR (default .bench_build) in that root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/borg-serve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a borg checkout (go.mod, cmd/borg-serve and perfbench/ are missing)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/home" "$out/tmp"
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/borg-serve" ./cmd/borg-serve
exec "$out/perfbench" -serve-bin "$out/borg-serve" -out "$out/perfbench-out" "$@"
