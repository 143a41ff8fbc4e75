#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it.
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, temporary
# snapshot directories and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/spans"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export TMPDIR="$out/tmp"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --spans "$out/spans" "$@"
