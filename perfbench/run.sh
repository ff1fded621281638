#!/usr/bin/env bash
# Builds leedctl and the benchmark driver from this checkout, then runs the
# driver with the arguments given (--workload, --seed, --seconds, --trace).
# Everything it writes stays under .bench_build/ at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gotmp"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/gotmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/leedctl" ./cmd/leedctl
go -C perfbench build -o "../$out/bin/perfbench" .
exec "$out/bin/perfbench" -leedctl "$out/bin/leedctl" -tmp "$out/tmp" "$@"
