#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the
# repository root:
#
#   bash perfbench/run.sh --workload cpu-lockstep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files, span
# files and CPU profiles. Without the repository around it (no go.mod
# beside perfbench/) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/perfbench"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: no go.mod beside $here; run from a checkout of the repository" >&2
	exit 2
fi
if ! (cd "$here" && go build -o "$build/perfbench/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench/perfbench" -out "$build/perfbench" "$@"
