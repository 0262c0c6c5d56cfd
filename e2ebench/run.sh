#!/usr/bin/env bash
# Builds the end-to-end benchmark and the almserve binary it drives from
# the sources in this checkout, then runs the benchmark. Run it from the
# repository root:
#
#   bash e2ebench/run.sh --workload product-forest --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, saved artifacts and trace files all
# go under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/almserve" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench/run.sh: run from the repository root (go.mod, cmd/almserve and e2ebench/ not all found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off

(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
go build -o "$out/bin/almserve" ./cmd/almserve

E2EBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
export E2EBENCH_COMMIT
exec "$out/bin/e2ebench" --almserve "$out/bin/almserve" --out "$out/e2ebench" "$@"
