#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build and scratch file stays under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the standard install location
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build/work" "$@"
