#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example:
#
#   bash bench/run.sh --workload watch_cycles --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh compare a.json b.json -- c.json d.json
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/sepbench" .)
exec "$build/sepbench" "$@"
