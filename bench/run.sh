#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it. Everything
# the Go tool writes (build cache, module cache, its own telemetry counters)
# is kept under .bench_build, so nothing is written outside the checkout;
# arguments are passed through to the harness unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/ijvm-bench .
exec .bench_build/ijvm-bench "$@"
