#!/usr/bin/env bash
# Builds ivmfd and the benchmark from source, then runs one workload:
#
#   bash ivmfbench/run.sh --workload serve-read --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, the servers' data
# dirs and the trace files. Build output goes to stderr, so the last
# line of stdout is the benchmark's result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ivmfd" ]; then
	echo "ivmfbench: $root is not a checkout of the repository (no go.mod or cmd/ivmfd)" >&2
	exit 1
fi
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root" && go build -o "$build/bin/ivmfd" ./cmd/ivmfd) >&2
(cd "$here" && go build -o "$build/bin/ivmfbench" .) >&2
exec "$build/bin/ivmfbench" --root "$root" --ivmfd "$build/bin/ivmfd" --out "$build/runs" "$@"
