#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <pipeline|serve|plan> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under .bench_build/ at
# the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"
cd "$root"
exec "$bin" "$@"
