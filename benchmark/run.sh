#!/usr/bin/env bash
# Builds the benchmark and lsra-served from the checkout this script sits
# in, then runs the benchmark from the checkout's root with the given
# arguments:
#
#   bash benchmark/run.sh -workload <name|all> -seed <n> -seconds <s> -trace <0|1>
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout, so a run reads and writes nothing outside it. The first run
# compiles everything; later runs reuse the cache.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$out/lsra-benchmark" .)
(cd "$root" && go build -o "$out/lsra-served" ./cmd/lsra-served)

cd "$root"
exec "$out/lsra-benchmark" -served "$out/lsra-served" -work "$out/work" "$@"
