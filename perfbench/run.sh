#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload barrier-p8 --seed 0 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and the
# traced runs' reports and CPU profiles.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-out" "$@"
