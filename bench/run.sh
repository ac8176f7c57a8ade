#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh                       # a set: every workload, 3 runs each
#   bash bench/run.sh --workload gate_flood --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare -base A.json -head B.json
#
# The Go build cache, temporary files and both binaries (bench, attestd)
# stay under .bench_build/ at the root, so a run writes nothing outside the
# checkout.
set -euo pipefail

if [[ ! -f bench/go.mod ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Without this the go command may leave a telemetry process behind.
go telemetry off 2>/dev/null || true
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
