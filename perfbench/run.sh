#!/usr/bin/env bash
# Builds mus-serve and the benchmark from the source tree around this
# directory, then runs one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache and the compiler's scratch files included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mus-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/mus-serve and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/mus-serve" ./cmd/mus-serve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/mus-serve" -workdir "$out/runs" "$@"
