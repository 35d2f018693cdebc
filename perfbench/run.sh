#!/usr/bin/env bash
# run.sh — build and run the serving-stack benchmark from source.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
#
# --trace 0 runs the end-to-end runner (cmd/e2e); --trace 1 runs the traced
# per-layer run (cmd/trace). "bash perfbench/run.sh steady -k 10" runs the
# steadiness mode (cmd/steady) over freshly built runners. Every build
# artifact, the Go build cache and the WAL directories stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
if [ ! -f "$bench/go.mod" ]; then
  echo "run.sh: run from the repository root (no perfbench/go.mod here)" >&2
  exit 2
fi

build() {
  (cd "$bench" && go build -buildvcs=false -o "$out/bin/$1" "./cmd/$1")
}

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[$i]}" in
    --trace | -trace) trace="${args[$((i + 1))]:-0}" ;;
    --trace=* | -trace=*) trace="${args[$i]#*=}" ;;
  esac
done
cmd=e2e
if [ "${1:-}" = "steady" ]; then
  shift
  cmd=steady
elif [ "$trace" = "1" ]; then
  cmd=trace
fi

mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export CGO_ENABLED=0

if [ -z "${BENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
  BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export BENCH_COMMIT
fi

if [ "$cmd" = steady ]; then
  build e2e
fi
build "$cmd"
exec "$out/bin/$cmd" "$@"
