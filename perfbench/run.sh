#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ptad-sweep --seed 1 --seconds 28 --trace 0
#
# The binary and Go's build cache go under $CARGO_TARGET_DIR (default
# .bench_build), so the benchmark writes nothing outside the checkout.
# The first run compiles the standard library into that cache.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
