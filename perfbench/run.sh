#!/usr/bin/env bash
# Builds gss-server, gss-router and the perfbench program from the source
# tree this script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload read --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the tree. Build output goes to standard error, so the last line
# of standard output is perfbench's JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$root"
# Any other go command would start a detached telemetry child that
# outlives this script; "go telemetry off" starts none.
go telemetry off >&2
go build -o "$out/bin/" ./cmd/gss-server ./cmd/gss-router >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
