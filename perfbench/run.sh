#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload loop-robust --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain and the benchmark write stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
