#!/usr/bin/env bash
# Builds the Tiamat benchmark from this checkout's source and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload take --seed 1 --seconds 30 --trace 0
# Everything the build leaves behind (binary, Go build cache, result and
# span files) goes under .bench_build/ at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# Keep every Go cache inside the checkout and never fetch anything: the
# module's only dependency is the repository itself (replace => ../).
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
