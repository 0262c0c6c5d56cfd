#!/bin/sh
# Fuzz smoke: run the parser targets, the snapshot+WAL restore target and
# the metric differential target for a short budget so `make check` exercises the corpora AND gives the
# mutator a brief shot at each. Go's fuzzer accepts one target per invocation, so targets run
# sequentially; any crash fails the script with the reproducer path the
# fuzzer prints.
set -eu

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-10s}"

run_target() {
    pkg="$1"
    target="$2"
    echo "fuzz: $pkg $target ($FUZZTIME)"
    "$GO" test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME"
}

run_target ./internal/model FuzzLoadModel
run_target ./internal/resilience FuzzScanWAL
run_target ./internal/dataset FuzzReadCSV
run_target ./internal/textsim FuzzMetrics
run_target ./internal/core FuzzSnapshotRestore

echo "fuzz smoke passed"
