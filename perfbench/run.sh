#!/usr/bin/env bash
# Builds cmd/ecserved and the benchmark program from the checkout it is
# run in, then runs the benchmark:
#
#   bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10
#
# Run it from the repository root. Build outputs, the Go build cache,
# daemon logs and span files all go under $CARGO_TARGET_DIR (default
# .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ecserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/ecserved and perfbench/)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/perfbench"

# Everything the go command writes, including its build cache and
# telemetry counters, stays under $out.
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
mkdir -p "$GOTMPDIR"

go build -o "$out/ecserved" ./cmd/ecserved
(cd perfbench && go build -o "$out/perfbench-run" .)

exec "$out/perfbench-run" --daemon "$out/ecserved" --out "$out/perfbench" --root "$PWD" "$@"
