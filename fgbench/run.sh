#!/usr/bin/env bash
# Builds the FloodGuard benchmark from source and runs one workload.
# Run it from the root of a checkout:
#
#   bash fgbench/run.sh --workload flood --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace spans stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/rtc" || ! -f "$root/fgbench/go.mod" ]]; then
	echo "fgbench: run from the root of a FloodGuard checkout (go.mod, internal/ and fgbench/ are needed)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

# The checkout may not be a git repository: identify the source by a
# hash of the Go files and module files instead.
src=$(find "$root" -path "$build" -prune -o -type f \( -name '*.go' -o -name 'go.mod' \) -print |
	LC_ALL=C sort | xargs sha256sum | sed "s| $root/| |" | sha256sum | cut -c1-16)
commit="src-sha256:$src"
if rev=$(git -C "$root" rev-parse --short HEAD 2>/dev/null); then
	commit="git:$rev $commit"
fi

(cd "$root/fgbench" && go build -o "$build/fgbench" .)
FGBENCH_COMMIT="$commit" exec "$build/fgbench" "$@"
