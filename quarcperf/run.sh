#!/usr/bin/env bash
# Builds quarcperf from source and runs it. Call from the repository root:
#   bash quarcperf/run.sh --workload paper-panels --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/ in the
# repository root (Go build cache included); the last line of standard
# output is the result object.
set -euo pipefail

root=$(pwd)
bench="$root/quarcperf"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "quarcperf: run from the root of a quarc checkout (go.mod and internal/ not found)" >&2
	exit 1
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local GOPROXY=off

# The tree's revision, when it is a git work tree (a plain source copy
# reports "unknown").
rev="" dirty=false
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null || true)" ]; then
		dirty=true
	fi
fi

(cd "$bench" && go build -buildvcs=false -o "$out/bin/quarcperf" .) >&2
exec "$out/bin/quarcperf" -rev "$rev" -dirty="$dirty" -scratch "$out/scratch" "$@"
