#!/usr/bin/env bash
# Builds the cmvrp benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash perfbench/run.sh --workload spec-solve --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh compare --ref HEAD~1
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
  echo "perfbench: run from the root of the cmvrp repository (no go.mod and internal/ here)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
