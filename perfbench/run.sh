#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the checkout root: the Go build cache, the binary and the scratch
# directories the service workloads journal into. A checkout without the
# program's sources fails the build, so the script exits non-zero without
# printing a result.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the toolchain's caches, temporary files and config inside the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

commit=unknown
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(cd "$bench_dir" && go build -o "$out/perfbench" .) >&2

cd "$root"
exec "$out/perfbench" -workdir "$out/tmp" -commit "$commit" -source "$root" "$@"
