#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark:
#
#   bash paravisbench/run.sh --workload ladder --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory. The benchmark module resolves the repository through
# a relative replace directive, so outside a repository checkout the build
# fails and the script exits non-zero without a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/paravisbench" && go build -o "$out/paravisbench" .) >&2
exec "$out/paravisbench" "$@"
