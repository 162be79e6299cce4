#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it. Run from
# the repository root:
#
#   bash e2ebench/run.sh --workload filter-ingest --seed 1 --seconds 12 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
# The go command keeps its telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"
# The build fails, and no result is printed, when the engine's source is
# not next to the benchmark.
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
