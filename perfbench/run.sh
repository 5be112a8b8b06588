#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload flame --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Keep the go command from starting its background telemetry process.
go telemetry off >/dev/null 2>&1 || true
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
