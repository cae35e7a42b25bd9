#!/usr/bin/env bash
# The one command of the benchmark. Builds the runner from source into
# .bench_build/ at the root of the checkout (with the Go build cache and the
# engine's spill files kept there too, so nothing is written outside the
# checkout) and runs it with the given arguments from that root.
#
#   bash bench/run.sh                                   whole suite, table + bench/out/
#   bash bench/run.sh --workload q17_baseline --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -selfcheck
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off TMPDIR="$build/tmp"
(cd "$root/bench" && go build -o "$build/sipbench-e2e" .) >&2
cd "$root"
exec "$build/sipbench-e2e" "$@"
