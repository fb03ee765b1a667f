#!/usr/bin/env bash
# Builds the congress benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root:
#
#	bash bench/run.sh --workload olap_read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, data
# directories, span dumps) stays under .bench_build/ in the working
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/bench" && go build -buildvcs=false -o "$out/congressbench" .)
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/congressbench" -workdir "$out" -commit "$commit" "$@"
