#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the driver's arguments:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write (Go build cache, temporary files,
# the binary, spans and profiles) stays under benchmark/out/.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$dir/out"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters in the user
# configuration directory; keep that here too.
export XDG_CONFIG_HOME="$out/config"
# The module needs nothing but the standard library and the parent module
# on disk; never reach for a toolchain or a proxy.
export GOTOOLCHAIN=local GOPROXY=off

(cd "$dir" && go build -o "$out/benchmark" .)
exec "$out/benchmark" --out "$out" --manifest "$dir/../BENCHMARK.json" "$@"
