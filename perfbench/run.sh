#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it. Run from the
# repository root; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload concurrent-local --seed 1 --seconds 45 --trace 0
#
# The Go build cache, temporary files, the go command's own config and
# telemetry files, and the binary stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)
export PERFBENCH_COMMIT="${commit:-unknown}"
exec "$build/perfbench" "$@"
