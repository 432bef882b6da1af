#!/usr/bin/env bash
# Builds the perfbench benchmark from the surrounding checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, span dumps) stays
# under .bench_build/ in the current directory (or $CARGO_TARGET_DIR when
# set, relative to the current directory).
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

commit="unknown"
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1 && git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD)"
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT="$commit" exec "$out/perfbench" --trace-dir "$out/traces" "$@"
