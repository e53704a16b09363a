#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:  bash bench/run.sh [--workload NAME] [--seed N] ...
# Everything the build leaves behind stays under .bench_build in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"

# Keep the go tool inside the checkout: caches, temporary files, telemetry.
export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomodcache
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOPROXY=off
export GOTOOLCHAIN=local

# The benchmark is a module of its own that imports the repository's packages
# through a replace directive; outside a checkout of the repository this fails,
# as it must.
(cd "$root/bench" && go build -o "$build/bench" .)

exec "$build/bench" "$@"
