#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# anywhere inside the checkout, with the benchmark's arguments:
#
#   bash lpbench/run.sh --workload churn --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout's root. Without the repository's source next to lpbench/
# the build fails and the script exits non-zero without a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd "$root/lpbench" && go build -o "$out/lpbench" .)
cd "$root"
exec "$out/lpbench" "$@"
